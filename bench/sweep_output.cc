#include "sweep_output.hh"

#include <cstdio>

#include "common/logging.hh"

namespace moentwine {
namespace benchout {

namespace {

/** Minimal JSON string escaping (labels are plain ASCII in practice). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/**
 * Fixed-format float with enough digits to round-trip the table-level
 * comparisons the smoke tests do; %.10g keeps the files compact and,
 * crucially, deterministic.
 */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace

std::string
sweepJson(const std::string &bench, const std::vector<SweepResult> &rows)
{
    std::string out = "{\n  \"schema\": \"moentwine.sweep.v1\",\n"
                      "  \"bench\": \"" +
        jsonEscape(bench) + "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepResult &r = rows[i];
        out += "    {\"index\": " + std::to_string(r.index) +
            ", \"label\": \"" + jsonEscape(r.label) + "\"";
        for (const auto &[key, value] : r.metrics)
            out += ", \"" + jsonEscape(key) + "\": " + num(value);
        out += i + 1 < rows.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
sweepCsv(const std::vector<SweepResult> &rows)
{
    if (rows.empty())
        return "index,label\n";
    std::string out = "index,label";
    for (const auto &[key, value] : rows.front().metrics) {
        (void)value;
        out += "," + key;
    }
    out += "\n";
    for (const SweepResult &r : rows) {
        MOE_ASSERT(r.metrics.size() == rows.front().metrics.size(),
                   "sweep rows carry differing metric sets");
        for (std::size_t m = 0; m < r.metrics.size(); ++m) {
            MOE_ASSERT(r.metrics[m].first ==
                           rows.front().metrics[m].first,
                       "sweep row metric keys diverge from the header");
        }
        std::string label = r.label;
        for (char &c : label)
            if (c == ',')
                c = ';';
        out += std::to_string(r.index) + "," + label;
        for (const auto &[key, value] : r.metrics) {
            (void)key;
            out += "," + num(value);
        }
        out += "\n";
    }
    return out;
}

bool
writeSweepFiles(const std::string &bench,
                const std::vector<SweepResult> &rows)
{
    const std::string base = "SWEEP_" + bench;
    const std::string json = sweepJson(bench, rows);
    const std::string csv = sweepCsv(rows);
    for (const auto &[path, content] :
         {std::pair<std::string, const std::string &>{base + ".json",
                                                      json},
          std::pair<std::string, const std::string &>{base + ".csv",
                                                      csv}}) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            warn("could not write " + path);
            return false;
        }
        std::fputs(content.c_str(), f);
        std::fclose(f);
    }
    std::printf("wrote %s.json / %s.csv\n", base.c_str(), base.c_str());
    return true;
}

void
writeObsFiles(const std::string &tracePath, const TraceSink &trace,
              const std::string &statsPath,
              const std::vector<StatRegistry> &cellStats)
{
    if (!tracePath.empty() && trace.writeFile(tracePath))
        std::printf("wrote %s\n", tracePath.c_str());
    if (statsPath.empty())
        return;
    std::FILE *f = std::fopen(statsPath.c_str(), "w");
    if (!f) {
        warn("could not write " + statsPath);
        return;
    }
    const std::string json =
        StatRegistry::mergedInOrder(cellStats).toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", statsPath.c_str());
}

} // namespace benchout
} // namespace moentwine
