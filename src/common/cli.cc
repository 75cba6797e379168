/**
 * @file
 * Command-line parser implementation.
 */

#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace gqos
{

CliArgs::CliArgs(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.size() < 3 || arg.substr(0, 2) != "--") {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        if (body.substr(0, 3) == "no-") {
            values_[body.substr(3)] = "false";
            continue;
        }
        // `--key value` when the next token is not an option;
        // otherwise a bare boolean flag.
        if (i + 1 < argc && std::string(argv[i + 1]).substr(0, 2)
                != "--") {
            values_[body] = argv[i + 1];
            i++;
        } else {
            values_[body] = "true";
        }
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

namespace
{

/**
 * Strict numeric parses: the whole token must be consumed, so
 * "10k", "1.5x" or an empty value are rejected rather than silently
 * truncated to their numeric prefix.
 */
bool
parseFullInt(const std::string &text, std::int64_t &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(text.c_str(), &end, 0);
    return end == text.c_str() + text.size() && errno != ERANGE;
}

bool
parseFullDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size() && errno != ERANGE;
}

} // anonymous namespace

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    std::int64_t v = 0;
    // No option takes a negative count; callers cast the value to
    // an unsigned type, where -1 would become 2^64 - 1.
    if (!parseFullInt(it->second, v) || v < 0) {
        gqos_fatal("option --%s expects a non-negative integer, "
                   "got '%s'", name.c_str(), it->second.c_str());
    }
    return v;
}

double
CliArgs::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    double v = 0.0;
    if (!parseFullDouble(it->second, v))
        gqos_fatal("option --%s expects a number, got '%s'",
                   name.c_str(), it->second.c_str());
    return v;
}

Result<std::vector<double>>
CliArgs::getPositiveList(const std::string &name,
                         const std::string &def) const
{
    std::vector<double> out;
    for (const std::string &tok : splitList(getString(name, def))) {
        if (tok.empty())
            continue;
        double v = 0.0;
        if (!parseFullDouble(tok, v) || !std::isfinite(v) ||
            !(v > 0.0)) {
            return Error::format(ErrorCode::InvalidArgument,
                                 "option --%s expects positive finite "
                                 "numbers, got '%s'",
                                 name.c_str(), tok.c_str());
        }
        out.push_back(v);
    }
    if (out.empty()) {
        return Error::format(ErrorCode::InvalidArgument,
                             "option --%s expects at least one value",
                             name.c_str());
    }
    return out;
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    gqos_fatal("option --%s expects a boolean, got '%s'",
               name.c_str(), v.c_str());
}

void
applyLogLevelFlags(const CliArgs &args)
{
    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Quiet);
    else if (args.getBool("verbose", false))
        setLogLevel(LogLevel::Verbose);
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else if (c != ' ') {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace gqos
