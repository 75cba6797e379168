/**
 * @file
 * Minimal command-line option parser for examples and benchmark
 * harnesses. Supports `--key value`, `--key=value` and boolean
 * flags (`--flag`, `--no-flag`).
 */

#ifndef GQOS_COMMON_CLI_HH
#define GQOS_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hh"

namespace gqos
{

/**
 * Parsed command line. Unknown options are collected rather than
 * rejected so harnesses can layer option sets.
 */
class CliArgs
{
  public:
    /** Parse argv; argv[0] is skipped. */
    CliArgs(int argc, const char *const *argv);

    /** True if --name or --name=... was present. */
    bool has(const std::string &name) const;

    /** String value, or @p def if absent. */
    std::string getString(const std::string &name,
                          const std::string &def) const;

    /**
     * Non-negative integer value, or @p def if absent. fatal()
     * naming the option and the token on a parse error or a
     * negative value.
     */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;

    /** Double value, or @p def if absent. fatal() on parse error. */
    double getDouble(const std::string &name, double def) const;

    /**
     * Comma-separated list of positive, finite numbers (@p def if
     * absent). Each token must parse whole, as in getDouble(); empty
     * tokens are skipped. A bad token or an empty list is an
     * InvalidArgument naming the option and the token.
     */
    Result<std::vector<double>> getPositiveList(
        const std::string &name, const std::string &def) const;

    /**
     * Boolean flag: --name => true, --no-name => false, a
     * parseBool() value, absent => @p def. fatal() naming the
     * option and the token on any other value.
     */
    bool getBool(const std::string &name, bool def) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/**
 * Strict number parses for CLI options, tenant specs and GQOS_FAULT:
 * the whole token in base 10 (no space, hex or trailing text), else
 * an InvalidArgument naming @p field and the token. Unsigned tokens
 * are digits only, without sign or leading zero ("010" is neither 8
 * nor 10), at most @p max; floating ones must be finite.
 */
Result<std::uint64_t> parseUnsigned(
    const std::string &token, const std::string &field,
    std::uint64_t max = ~std::uint64_t{0});
Result<double> parseFinite(const std::string &token,
                           const std::string &field);
/** true/1/yes/on or false/0/no/off, else an InvalidArgument. */
Result<bool> parseBool(const std::string &token,
                       const std::string &field);

/** Split a comma-separated list into trimmed tokens. */
std::vector<std::string> splitList(const std::string &text,
                                   char sep = ',');

/**
 * Apply --quiet / --verbose to the global log level (common/logging).
 * --quiet wins when both are given. Call once from main() after
 * parsing; does nothing when neither flag is present.
 */
void applyLogLevelFlags(const CliArgs &args);

} // namespace gqos

#endif // GQOS_COMMON_CLI_HH
