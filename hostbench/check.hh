/**
 * @file
 * Independent output check for the host benchmark.
 *
 * References are computed here, not with the library's own
 * spmvReference() or matmulTransposed(), and accumulate in long
 * double. A dot product of length n summed in double in any order is
 * within gamma_n * sum|a_k b_k| of the exact value (Higham, Accuracy
 * and Stability of Numerical Algorithms, section 3.1), so the check
 * accepts a later change of the thread body's summation order (such as
 * independent accumulators) and rejects any result past that bound.
 */

#ifndef LSCHED_HOSTBENCH_CHECK_HH
#define LSCHED_HOSTBENCH_CHECK_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace hostbench
{

/** gamma_n = n u / (1 - n u) for unit roundoff @p u. */
inline double
gammaN(double n, double u)
{
    return n * u / (1.0 - n * u);
}

/**
 * Tolerance for one dot product of length @p n whose absolute sum
 * sum|a_k b_k|, computed in double, is @p absSum. It covers:
 *  - the tested result's error, gamma_n(u) * S;
 *  - the long double reference's error, gamma_n(u_ld) * S;
 *  - rounding that reference to double, u * S (1 + gamma_n(u_ld));
 *  - the rounding of absSum itself, S <= absSum / (1 - gamma_n(u)).
 */
inline double
dotTolerance(std::size_t n, double absSum)
{
    constexpr double u = std::numeric_limits<double>::epsilon() / 2;
    constexpr double uld =
        static_cast<double>(std::numeric_limits<long double>::epsilon()) /
        2;
    const double nd = static_cast<double>(n);
    const double gld = gammaN(nd, uld);
    return (gammaN(nd, u) + gld + u * (1.0 + gld)) * absSum /
           (1.0 - gammaN(nd, u));
}

/** @p v with all its digits, for failure messages. */
inline std::string
fullDigits(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Reference values of an operation's output and their tolerances. */
struct Reference
{
    std::vector<double> value;
    std::vector<double> tol;
};

/** Outcome of one checked operation. */
struct CheckResult
{
    bool ok = true;
    /** First failure, for the log; empty when ok. */
    std::string why;
};

/**
 * Check one operation. Every output must lie within its tolerance of
 * the reference (a NaN left by the pre-operation fill fails the
 * comparison), and the scheduler must report exactly as many
 * executed threads as were forked. With the NaN fill, the two
 * together show every output was written exactly once.
 */
inline CheckResult
checkOutput(std::span<const double> out, const Reference &ref,
            std::uint64_t executed, std::uint64_t forked)
{
    if (executed != forked)
        return {false, "executed " + std::to_string(executed) + " of " +
                           std::to_string(forked) + " forked threads"};
    if (out.size() != ref.value.size())
        return {false, "output has " + std::to_string(out.size()) +
                           " entries, reference " +
                           std::to_string(ref.value.size())};
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!(std::fabs(out[i] - ref.value[i]) <= ref.tol[i])) {
            return {false, "entry " + std::to_string(i) + " = " +
                               fullDigits(out[i]) + ", reference " +
                               fullDigits(ref.value[i]) + " within " +
                               fullDigits(ref.tol[i])};
        }
    }
    return {};
}

} // namespace hostbench

#endif // LSCHED_HOSTBENCH_CHECK_HH
