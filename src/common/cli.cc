/**
 * @file
 * Command-line parser implementation.
 */

#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

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

Result<std::uint64_t>
parseUnsigned(const std::string &token, const std::string &field,
              std::uint64_t max)
{
    errno = 0;
    const bool digits =
        !token.empty() &&
        token.find_first_not_of("0123456789") == std::string::npos &&
        (token.size() == 1 || token[0] != '0');
    const std::uint64_t v =
        digits ? std::strtoull(token.c_str(), nullptr, 10) : 0;
    if (digits && errno != ERANGE && v <= max)
        return v;
    return Error::format(ErrorCode::InvalidArgument,
                         "%s expects a non-negative integer, got '%s'",
                         field.c_str(), token.c_str());
}

Result<double>
parseFinite(const std::string &token, const std::string &field)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (!token.empty() &&
        token.find_first_not_of("0123456789.eE+-") ==
            std::string::npos &&
        end == token.c_str() + token.size() && errno != ERANGE &&
        std::isfinite(v)) {
        return v;
    }
    return Error::format(ErrorCode::InvalidArgument,
                         "%s expects a finite number, got '%s'",
                         field.c_str(), token.c_str());
}

Result<bool>
parseBool(const std::string &token, const std::string &field)
{
    if (token == "true" || token == "1" || token == "yes" ||
        token == "on")
        return true;
    if (token == "false" || token == "0" || token == "no" ||
        token == "off")
        return false;
    return Error::format(ErrorCode::InvalidArgument,
                         "%s expects a boolean, got '%s'",
                         field.c_str(), token.c_str());
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    // No option takes a negative count; callers cast the value to
    // an unsigned type, where -1 would become 2^64 - 1.
    return static_cast<std::int64_t>(okOrDie(parseUnsigned(
        it->second, "option --" + name,
        std::numeric_limits<std::int64_t>::max())));
}

double
CliArgs::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return okOrDie(parseFinite(it->second, "option --" + name));
}

Result<std::vector<double>>
CliArgs::getPositiveList(const std::string &name,
                         const std::string &def) const
{
    std::vector<double> out;
    for (const std::string &tok : splitList(getString(name, def))) {
        if (tok.empty())
            continue;
        Result<double> v = parseFinite(tok, "option --" + name);
        if (!v.ok() || !(v.value() > 0.0)) {
            return Error::format(ErrorCode::InvalidArgument,
                                 "option --%s expects positive finite "
                                 "numbers, got '%s'",
                                 name.c_str(), tok.c_str());
        }
        out.push_back(v.value());
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
    return okOrDie(parseBool(it->second, "option --" + name));
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
