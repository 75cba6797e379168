/**
 * @file
 * Seeded parser fuzz: mutated tokens fed to every parser that reads
 * user input (the command line, the number parser, tenant specs,
 * GQOS_FAULT specs, result-cache lines and arrival traces) must come
 * back as a value or an Error, never an abort. Deterministic: one Rng seed drives
 * every mutation, so a failure replays exactly. The sanitizer
 * presets run it like any other test.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "harness/result_cache.hh"
#include "serving/arrival.hh"
#include "serving/tenant.hh"

namespace gqos
{
namespace
{

/** Bytes the mutator splices in: separators, signs, digits, letters
 *  of nan/inf/hex, quotes, braces, spaces, NUL and a high byte. */
const std::string alphabet =
    std::string("0123456789-+.eExXnaNiIfF:;,|{}\"' \t\xff") + '\0';

/** One random edit of @p s: insert, delete, replace, duplicate a
 *  span or truncate. */
std::string
mutate(std::string s, Rng &rng)
{
    const std::size_t at = s.empty() ? 0 : rng.below(s.size() + 1);
    switch (rng.below(5)) {
      case 0:
        s.insert(at, 1, alphabet[rng.below(alphabet.size())]);
        break;
      case 1:
        if (at < s.size())
            s.erase(at, 1 + rng.below(3));
        break;
      case 2:
        if (at < s.size())
            s[at] = alphabet[rng.below(alphabet.size())];
        break;
      case 3:
        if (at < s.size())
            s.insert(at, s.substr(at, 1 + rng.below(8)));
        break;
      default:
        s.resize(at);
        break;
    }
    return s;
}

/** One of @p seeds after one to four mutations. */
std::string
fuzzed(const std::vector<std::string> &seeds, Rng &rng)
{
    std::string s = seeds[rng.below(seeds.size())];
    for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
        s = mutate(std::move(s), rng);
    return s;
}

/** Quiets the warnings malformed input is expected to print. */
struct ParseFuzz : public ::testing::Test
{
    ParseFuzz() : saved(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~ParseFuzz() override
    {
        setLogLevel(saved);
        FaultInjector::instance().clear();
    }

    LogLevel saved;
    Rng rng{0xf022};
};

TEST_F(ParseFuzz, NumberParser)
{
    const std::vector<std::string> seeds = {
        "0", "200000", "18446744073709551615", "0.5", "-2.5e-1",
        "1e308", "4.9e-324"};
    int accepted = 0;
    for (int i = 0; i < 4000; ++i) {
        const std::string tok = fuzzed(seeds, rng);
        Result<std::uint64_t> u = parseUnsigned(tok, "n");
        Result<double> d = parseFinite(tok, "x");
        if (u.ok()) {
            // Accepted unsigned tokens are canonical base 10.
            EXPECT_EQ(std::to_string(u.value()), tok);
            accepted++;
        }
        if (d.ok()) {
            EXPECT_TRUE(std::isfinite(d.value())) << tok;
        } else {
            EXPECT_EQ(d.error().code(), ErrorCode::InvalidArgument);
        }
    }
    EXPECT_GT(accepted, 0);
}

/**
 * The command-line splitting CliArgs documents (cli.hh): `--key=value`
 * at the first '=', `--no-key` as false, `--key value` when the next
 * token is not an option, else a bare flag; the last setting of a key
 * wins; a token shorter than three bytes or without the leading "--"
 * is positional.
 */
void
splitArgs(const std::vector<std::string> &argv,
          std::map<std::string, std::string> &values,
          std::vector<std::string> &positional)
{
    for (std::size_t i = 1; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
            positional.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos)
            values[body.substr(0, eq)] = body.substr(eq + 1);
        else if (body.compare(0, 3, "no-") == 0)
            values[body.substr(3)] = "false";
        else if (i + 1 < argv.size() &&
                 argv[i + 1].compare(0, 2, "--") != 0)
            values[body] = argv[++i];
        else
            values[body] = "true";
    }
}

TEST_F(ParseFuzz, CliArgs)
{
    // Option forms (`--key=value`, `--key value`, a bare flag,
    // `--flag=`, an empty key, non-ASCII bytes), values and words.
    const std::vector<std::string> seeds = {
        "--cycles=20000", "--jobs", "4", "--full", "--no-cache",
        "--trace=", "--=x", "--no-", "--", "---", "-x",
        "--rate=0.08", "--loads=1.0,4.0", "--verbose=on", "serving",
        "--k\xc3\xa9y=v\xff", "\xe2\x82\xac", "--a=b=c"};
    int options = 0;
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::string> argv = {"prog"};
        for (std::uint64_t n = rng.below(8); n > 0; --n) {
            std::string tok = rng.below(2)
                ? seeds[rng.below(seeds.size())]
                : fuzzed(seeds, rng);
            // A C argument ends at its first NUL.
            argv.push_back(tok.c_str());
        }
        // Half the vectors repeat a key with another value.
        if (rng.below(2))
            argv.push_back("--cycles=7");
        std::vector<const char *> cargs;
        for (const std::string &a : argv)
            cargs.push_back(a.c_str());
        const CliArgs args(static_cast<int>(cargs.size()), cargs.data());

        std::map<std::string, std::string> values;
        std::vector<std::string> positional;
        splitArgs(argv, values, positional);
        EXPECT_EQ(args.positional(), positional);
        for (const auto &[key, value] : values) {
            options++;
            ASSERT_TRUE(args.has(key)) << key;
            ASSERT_EQ(args.getString(key, "?"), value) << key;
            // Every typed read is a value or an InvalidArgument; the
            // fatal()-on-error getters agree with it on every value
            // it accepts.
            const std::string field = "option --" + key;
            Result<std::uint64_t> u = parseUnsigned(
                value, field, std::numeric_limits<std::int64_t>::max());
            if (u.ok()) {
                EXPECT_EQ(static_cast<std::uint64_t>(args.getInt(key, 0)),
                          u.value());
            } else {
                EXPECT_EQ(u.error().code(), ErrorCode::InvalidArgument);
            }
            Result<double> d = parseFinite(value, field);
            if (d.ok()) {
                EXPECT_EQ(args.getDouble(key, 0.0), d.value());
            } else {
                EXPECT_EQ(d.error().code(), ErrorCode::InvalidArgument);
            }
            Result<bool> b = parseBool(value, field);
            if (b.ok()) {
                EXPECT_EQ(args.getBool(key, !b.value()), b.value());
            } else {
                EXPECT_EQ(b.error().code(), ErrorCode::InvalidArgument);
            }
            Result<std::vector<double>> list =
                args.getPositiveList(key, "1");
            if (list.ok()) {
                EXPECT_FALSE(list.value().empty());
            } else {
                EXPECT_EQ(list.error().code(),
                          ErrorCode::InvalidArgument);
            }
        }
        if (argv.back() == "--cycles=7") {
            EXPECT_EQ(args.getInt("cycles", 0), 7);
        }
    }
    EXPECT_GT(options, 0);
}

TEST_F(ParseFuzz, TenantSpec)
{
    const std::vector<std::string> seeds = {
        "web:sgemm:guaranteed:0.5:30000:16", "bg:histo:besteffort",
        "a:lbm:elastic:0.3:0:1", "t:stencil"};
    int accepted = 0;
    for (int i = 0; i < 3000; ++i) {
        Result<TenantSpec> r = parseTenantSpec(fuzzed(seeds, rng));
        if (r.ok()) {
            EXPECT_TRUE(r.value().check().ok());
            accepted++;
        }
    }
    EXPECT_GT(accepted, 0);
}

TEST_F(ParseFuzz, FaultSpec)
{
    const std::vector<std::string> seeds = {
        "cache_write:0.5", "cache_write:0.5,config_parse:0.25",
        "arrival_parse:1,cache_read:0"};
    FaultInjector &fi = FaultInjector::instance();
    for (int i = 0; i < 3000; ++i) {
        fi.clear();
        const int n = fi.configure(fuzzed(seeds, rng));
        EXPECT_GE(n, 0);
        if (n == 0) {
            EXPECT_FALSE(fi.enabled());
        }
    }
}

TEST_F(ParseFuzz, CacheLine)
{
    const std::vector<std::string> payloads = {
        "rollover|sgemm:0.5000|lbm:0.0000;812.5,101.25;3.5;12;40.25;",
        "even|sgemm:0.0000;1002.3;4.25;0;1.5;"};
    for (int i = 0; i < 3000; ++i) {
        // Half the lines carry a valid CRC over the mutated payload,
        // so the fields behind the checksum get exercised too.
        std::string line;
        if (rng.below(2)) {
            const std::string payload = fuzzed(payloads, rng);
            char crc[16];
            std::snprintf(crc, sizeof(crc), "%08x", crc32(payload));
            line = std::string(crc) + ";" + payload;
        } else {
            line = fuzzed({"0badc0de;" + payloads[0]}, rng);
        }
        std::string key;
        CachedCase c;
        if (ResultCache::parseLine(line, key, c)) {
            EXPECT_FALSE(key.empty());
        }
    }
}

TEST_F(ParseFuzz, ArrivalTrace)
{
    const std::vector<std::string> seeds = {
        R"({"cycle":0,"tenant":0,"seq":0})",
        R"({"cycle":1200,"tenant":1,"seq":7})",
        R"( { "cycle" : 18446744073709551615 , "tenant" : 2 ,)"
        R"( "seq" : 3 })"};
    const std::string path = ::testing::TempDir() +
                             "gqos_fuzz_arrivals_" +
                             std::to_string(::getpid()) + ".jsonl";
    for (int i = 0; i < 300; ++i) {
        {
            std::ofstream out(path, std::ios::trunc);
            for (std::uint64_t n = rng.below(6); n > 0; --n)
                out << fuzzed(seeds, rng) << "\n";
        }
        std::uint64_t malformed = 0;
        Result<std::vector<Arrival>> r =
            loadArrivalTrace(path, 3, &malformed);
        ASSERT_TRUE(r.ok()) << r.error().message();
        for (const Arrival &a : r.value()) {
            EXPECT_GE(a.tenant, 0);
            EXPECT_LT(a.tenant, 3);
        }
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace gqos
