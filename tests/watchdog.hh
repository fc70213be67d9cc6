/**
 * @file
 * alarm() watchdog for the test suites that start threads: a claim,
 * join or termination bug in a pool hangs instead of failing, so every
 * test gets a wall-clock budget (generous enough for sanitizer builds)
 * and the binary dies loudly past it, naming the test that hung.
 *
 * Include once from a test binary's source; the listener installs
 * itself before main().
 */

#ifndef MOENTWINE_TESTS_WATCHDOG_HH
#define MOENTWINE_TESTS_WATCHDOG_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <string>

#include <unistd.h>

namespace moentwine {
namespace testwatchdog {

constexpr unsigned kBudgetSeconds = 120;

/** "Suite.Name" of the running test, copied outside the handler so
 *  the handler itself only calls async-signal-safe write(). */
inline char gRunningTest[256];
inline std::size_t gRunningTestLen = 0;

inline void
fired(int)
{
    static const char head[] = "watchdog alarm: ";
    static const char tail[] = " ran out of time - likely a hung "
                               "thread pool\n";
    ssize_t ignored = write(STDERR_FILENO, head, sizeof(head) - 1);
    ignored = write(STDERR_FILENO, gRunningTest, gRunningTestLen);
    ignored = write(STDERR_FILENO, tail, sizeof(tail) - 1);
    (void)ignored;
    _exit(1);
}

class Watchdog : public ::testing::EmptyTestEventListener
{
    void OnTestStart(const ::testing::TestInfo &info) override
    {
        const std::string name =
            std::string(info.test_suite_name()) + "." + info.name();
        gRunningTestLen = std::min(name.size(), sizeof(gRunningTest));
        std::memcpy(gRunningTest, name.data(), gRunningTestLen);
        std::signal(SIGALRM, fired);
        alarm(kBudgetSeconds);
    }
    void OnTestEnd(const ::testing::TestInfo &) override { alarm(0); }
};

/** Namespace-scope const: internal linkage, one listener per binary. */
const bool kInstalled = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(new Watchdog);
    return true;
}();

} // namespace testwatchdog
} // namespace moentwine

#endif // MOENTWINE_TESTS_WATCHDOG_HH
