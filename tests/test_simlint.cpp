// Drives the simlint rule engine over tests/simlint_fixtures/: every
// seeded violation must be reported with its exact rule id and line, and
// every false-positive / suppression case must stay silent. The fixture
// directory is excluded from the repo-wide lint_tree run (rules.toml), so
// these files exist only for this test.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "linter.h"

namespace {

using simlint::Config;
using simlint::Finding;
using simlint::Severity;
using simlint::Source;

std::string
fixturePath(const std::string &name)
{
    return std::string(SIMLINT_FIXTURE_DIR) + "/" + name;
}

Source
loadFixture(const std::string &name)
{
    std::ifstream in(fixturePath(name));
    EXPECT_TRUE(in.good()) << "missing fixture " << name;
    std::ostringstream text;
    text << in.rdbuf();
    return Source{name, text.str()};
}

/** Load a fixture but lint it under a synthetic repo path — the
 *  shared-sim-state rule keys its entry-point roots off src/... paths. */
Source
loadFixtureAs(const std::string &name, const std::string &path)
{
    Source source = loadFixture(name);
    source.path = path;
    return source;
}

/** (file, line, rule) triples, sorted, for exact-set comparison. */
using Triple = std::tuple<std::string, int, std::string>;

std::vector<Triple>
triples(const std::vector<Finding> &findings)
{
    std::vector<Triple> out;
    for (const Finding &f : findings)
        out.emplace_back(f.file, f.line, f.rule);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Triple>
lintFixture(const std::string &name)
{
    return triples(simlint::lint({loadFixture(name)}, Config{}));
}

TEST(SimlintFixtures, WallClock)
{
    EXPECT_EQ(lintFixture("wall_clock.cpp"),
              (std::vector<Triple>{
                  {"wall_clock.cpp", 10, "wall-clock"},
                  {"wall_clock.cpp", 17, "wall-clock"},
              }));
}

TEST(SimlintFixtures, RawRand)
{
    EXPECT_EQ(lintFixture("raw_rand.cpp"),
              (std::vector<Triple>{
                  {"raw_rand.cpp", 10, "raw-rand"},
                  {"raw_rand.cpp", 17, "raw-rand"},
              }));
}

TEST(SimlintFixtures, UnorderedIter)
{
    EXPECT_EQ(lintFixture("unordered_iter.cpp"),
              (std::vector<Triple>{
                  {"unordered_iter.cpp", 18, "unordered-iter"},
                  {"unordered_iter.cpp", 27, "unordered-iter"},
              }));
}

TEST(SimlintFixtures, MutableGlobal)
{
    EXPECT_EQ(lintFixture("mutable_global.cpp"),
              (std::vector<Triple>{
                  {"mutable_global.cpp", 6, "mutable-global"},
                  {"mutable_global.cpp", 13, "mutable-global"},
              }));
}

TEST(SimlintFixtures, RawIo)
{
    EXPECT_EQ(lintFixture("raw_io.cpp"),
              (std::vector<Triple>{
                  {"raw_io.cpp", 10, "raw-io"},
                  {"raw_io.cpp", 16, "raw-io"},
              }));
}

TEST(SimlintFixtures, NakedNew)
{
    EXPECT_EQ(lintFixture("naked_new.cpp"),
              (std::vector<Triple>{
                  {"naked_new.cpp", 14, "naked-new"},
              }));
}

TEST(SimlintFixtures, TickFloat)
{
    EXPECT_EQ(lintFixture("tick_float.cpp"),
              (std::vector<Triple>{
                  {"tick_float.cpp", 10, "tick-float"},
                  {"tick_float.cpp", 16, "tick-float"},
              }));
}

TEST(SimlintFixtures, MissingNodiscard)
{
    EXPECT_EQ(lintFixture("missing_nodiscard.h"),
              (std::vector<Triple>{
                  {"missing_nodiscard.h", 10, "missing-nodiscard"},
              }));
}

TEST(SimlintFixtures, BlockCopy)
{
    // Line 13 is the declaration, line 21 the per-request copy; the
    // sanctioned sampleBlockPtr()/sampleBlockIndex() spellings and the
    // justified suppression stay silent.
    EXPECT_EQ(lintFixture("block_copy.cpp"),
              (std::vector<Triple>{
                  {"block_copy.cpp", 13, "block-copy"},
                  {"block_copy.cpp", 21, "block-copy"},
              }));
}

TEST(SimlintFixtures, CrossShardState)
{
    // Line 25 schedules onto a fetched domain via `.`, line 31 via a
    // pointer's `->`; the sanctioned ClusterSim::post() call, the
    // read-only domain(d) fetch, and the justified suppression all
    // stay silent.
    EXPECT_EQ(lintFixture("cross_shard_state.cpp"),
              (std::vector<Triple>{
                  {"cross_shard_state.cpp", 25, "cross-shard-state"},
                  {"cross_shard_state.cpp", 31, "cross-shard-state"},
              }));
}

TEST(SimlintFixtures, Suppressions)
{
    // Line 10: justified suppression silences the finding entirely.
    // Line 16: suppression without justification is itself a finding,
    //          but the named (known) rule is still honoured.
    // Line 22: unknown rule suppresses nothing, and is a finding.
    EXPECT_EQ(lintFixture("suppression.cpp"),
              (std::vector<Triple>{
                  {"suppression.cpp", 16, "bad-suppression"},
                  {"suppression.cpp", 22, "bad-suppression"},
                  {"suppression.cpp", 22, "raw-io"},
              }));
}

TEST(SimlintFixtures, CrossFileUnorderedIndex)
{
    // A container declared in one file and iterated in another is still
    // caught: the unordered-decl index spans the whole source set.
    const Source header{"registry.h",
                        "#pragma once\n"
                        "#include <unordered_map>\n"
                        "struct Registry\n"
                        "{\n"
                        "    std::unordered_map<int, int> entries;\n"
                        "};\n"};
    const Source user{"user.cpp",
                      "#include \"registry.h\"\n"
                      "int sum(const Registry &r)\n"
                      "{\n"
                      "    int s = 0;\n"
                      "    for (const auto &kv : r.entries)\n"
                      "        s += kv.second;\n"
                      "    return s;\n"
                      "}\n"};
    EXPECT_EQ(triples(simlint::lint({header, user}, Config{})),
              (std::vector<Triple>{
                  {"user.cpp", 5, "unordered-iter"},
              }));
}

TEST(SimlintFixtures, SharedSimState)
{
    // mutable-global is switched off here to isolate the cross-TU rule;
    // the repo's rules.toml documents the same precedence (shared-sim-
    // state supersedes mutable-global inside the entry directories).
    Config config;
    std::string error;
    ASSERT_TRUE(parseRulesConfig(
        "[rules.mutable-global]\nseverity = \"off\"\n", config, error))
        << error;

    // Line 7: declared in an entry dir. Line 8/21 (stats.cpp): only
    // findable through the kernel.cpp -> bumpHits()/recordSample() call
    // edges. coldCounter (line 10) is referenced only by the unreached
    // orphanTouch() and must stay silent; so must the suppressed and
    // const globals.
    EXPECT_EQ(
        triples(simlint::lint(
            {loadFixtureAs("shared_sim_state_kernel.cpp",
                           "src/sim/kernel.cpp"),
             loadFixtureAs("shared_sim_state_common.cpp",
                           "src/common/stats.cpp")},
            config)),
        (std::vector<Triple>{
            {"src/common/stats.cpp", 8, "shared-sim-state"},
            {"src/common/stats.cpp", 21, "shared-sim-state"},
            {"src/sim/kernel.cpp", 7, "shared-sim-state"},
        }));
}

TEST(SimlintFixtures, SharedSimStateNeedsAReachableRoot)
{
    // The same common file linted without the kernel TU has no entry
    // point reaching it: nothing may fire.
    Config config;
    std::string error;
    ASSERT_TRUE(parseRulesConfig(
        "[rules.mutable-global]\nseverity = \"off\"\n", config, error))
        << error;
    EXPECT_TRUE(triples(simlint::lint(
                            {loadFixtureAs("shared_sim_state_common.cpp",
                                           "src/common/stats.cpp")},
                            config))
                    .empty());
}

TEST(SimlintFixtures, SharedSimStateSkipsOperatorNewAndDelete)
{
    // Operator new/delete defined in an entry directory (a pooled
    // coroutine promise) and a counting global operator new in a test
    // share the token before '(', but are not functions named `new`: the
    // call graph must not link them, so the counter's newCalls (line 7)
    // stays silent. framesSeen (line 9) is a real mutable global reached
    // from src/sim through stepFrames() -> noteFrame(), and still fires.
    Config config;
    std::string error;
    ASSERT_TRUE(parseRulesConfig(
        "[rules.mutable-global]\nseverity = \"off\"\n", config, error))
        << error;
    EXPECT_EQ(
        triples(simlint::lint(
            {loadFixtureAs("shared_sim_state_operator_sim.cpp",
                           "src/sim/frame_pool.cpp"),
             loadFixtureAs("shared_sim_state_operator_counter.cpp",
                           "tests/alloc_counter.cpp")},
            config)),
        (std::vector<Triple>{
            {"tests/alloc_counter.cpp", 9, "shared-sim-state"},
        }));
}

TEST(SimlintFixtures, PtrKeyedContainer)
{
    // Lines 15-17: map/set/unordered_map keyed by pointer. The explicit
    // comparator (25), pointer-as-value (26), vector (27) and the
    // suppressed declaration (21) stay silent.
    EXPECT_EQ(lintFixture("ptr_keyed_container.cpp"),
              (std::vector<Triple>{
                  {"ptr_keyed_container.cpp", 15, "ptr-keyed-container"},
                  {"ptr_keyed_container.cpp", 16, "ptr-keyed-container"},
                  {"ptr_keyed_container.cpp", 17, "ptr-keyed-container"},
              }));
}

TEST(SimlintFixtures, EventHandleMisuse)
{
    // Line 15: cancel through a moved-from handle. Line 30: raw int slot
    // index. The revived handle (24), the suppressed shard index (34)
    // and the un-slot-named member (36) stay silent.
    EXPECT_EQ(lintFixture("event_handle_misuse.cpp"),
              (std::vector<Triple>{
                  {"event_handle_misuse.cpp", 15, "event-handle-misuse"},
                  {"event_handle_misuse.cpp", 30, "event-handle-misuse"},
              }));
}

TEST(SimlintFixtures, SpanImbalance)
{
    // Line 13: opened, never closed. Line 20 is suppressed.
    EXPECT_EQ(lintFixture("span_imbalance.cpp"),
              (std::vector<Triple>{
                  {"span_imbalance.cpp", 13, "span-imbalance"},
              }));
    // Open + close in the same file: balanced, silent.
    EXPECT_TRUE(lintFixture("span_balanced.cpp").empty());
}

TEST(SimlintFixtures, SpanClosedInIncludeNeighbourIsBalanced)
{
    // The close may live across the include edge (either direction);
    // here the header closes what the including file opens.
    const Source header{"trace_ctx.h",
                        "struct TraceContext\n"
                        "{\n"
                        "    unsigned long long mark;\n"
                        "};\n"
                        "inline void\n"
                        "closeSpan(TraceContext &trace)\n"
                        "{\n"
                        "    trace.mark = 0;\n"
                        "}\n"};
    const Source user{"user.cpp",
                      "#include \"trace_ctx.h\"\n"
                      "void\n"
                      "openSpan(TraceContext &trace,\n"
                      "         unsigned long long now)\n"
                      "{\n"
                      "    trace.mark = now;\n"
                      "}\n"};
    EXPECT_TRUE(triples(simlint::lint({header, user}, Config{})).empty());
}

TEST(SimlintDiff, OnlyFindingsNewSinceBaseSurvive)
{
    // The base has the same printf, just on a different line: diffing by
    // (file, rule, offending line text) drops it, keeping only the
    // naked-new that the "change" introduced.
    const Source base{"a.cpp",
                      "#include <cstdio>\n"
                      "void f()\n"
                      "{\n"
                      "    printf(\"x\");\n"
                      "}\n"};
    const Source current{"a.cpp",
                         "#include <cstdio>\n"
                         "void f()\n"
                         "{\n"
                         "    int *p = new int(5);\n"
                         "    (void)p;\n"
                         "    printf(\"x\");\n"
                         "}\n"};
    const auto baseFindings = simlint::lint({base}, Config{});
    const auto currentFindings = simlint::lint({current}, Config{});
    EXPECT_EQ(triples(baseFindings),
              (std::vector<Triple>{{"a.cpp", 4, "raw-io"}}));
    const auto fresh = simlint::diffNewFindings(
        currentFindings, {current}, baseFindings, {base});
    EXPECT_EQ(triples(fresh),
              (std::vector<Triple>{{"a.cpp", 4, "naked-new"}}));
}

TEST(SimlintDiff, FileAbsentFromBaseIsEntirelyNew)
{
    const Source current{"b.cpp",
                         "#include <cstdio>\n"
                         "void g() { printf(\"y\"); }\n"};
    const auto findings = simlint::lint({current}, Config{});
    const auto fresh =
        simlint::diffNewFindings(findings, {current}, {}, {});
    EXPECT_EQ(triples(fresh), triples(findings));
    EXPECT_FALSE(fresh.empty());
}

TEST(SimlintReporters, SarifNamesRulesAndLocations)
{
    const auto findings =
        simlint::lint({loadFixture("naked_new.cpp")}, Config{});
    ASSERT_EQ(findings.size(), 1u);
    const std::string sarif = simlint::renderSarif(findings);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"simlint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"naked-new\""), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"naked_new.cpp\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 14"), std::string::npos);
    // Every known rule is declared in the driver's rule table, including
    // the cross-TU ones.
    for (const std::string &rule : simlint::allRules())
        EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"),
                  std::string::npos)
            << rule;
}

TEST(SimlintConfig, SeverityAllowAndExclude)
{
    Config config;
    std::string error;
    const std::string toml = "# comment\n"
                             "[lint]\n"
                             "exclude = [\"vendored\"]\n"
                             "\n"
                             "[rules.raw-io]\n"
                             "severity = \"off\"\n"
                             "\n"
                             "[rules.wall-clock]\n"
                             "severity = \"warn\"\n"
                             "allow = [\"bench\"]\n";
    ASSERT_TRUE(parseRulesConfig(toml, config, error)) << error;
    EXPECT_EQ(config.severityFor("raw-io"), Severity::Off);
    EXPECT_EQ(config.severityFor("wall-clock"), Severity::Warn);
    EXPECT_EQ(config.severityFor("naked-new"), Severity::Error);
    EXPECT_TRUE(config.allowsPath("wall-clock", "bench/micro.cpp"));
    EXPECT_FALSE(config.allowsPath("wall-clock", "src/micro.cpp"));
    EXPECT_EQ(config.exclude, std::vector<std::string>{"vendored"});

    // severity = "off" drops findings; allow prefixes drop per path.
    const Source noisy{"bench/noisy.cpp",
                       "#include <chrono>\n"
                       "#include <cstdio>\n"
                       "void f()\n"
                       "{\n"
                       "    auto t = std::chrono::steady_clock::now();\n"
                       "    (void)t;\n"
                       "    printf(\"x\");\n"
                       "}\n"};
    const auto found = triples(simlint::lint({noisy}, config));
    EXPECT_TRUE(found.empty()) << simlint::renderText(
        simlint::lint({noisy}, config));
}

TEST(SimlintConfig, RejectsMalformedToml)
{
    Config config;
    std::string error;
    EXPECT_FALSE(parseRulesConfig("[rules.raw-io]\nseverity = \"loud\"\n",
                                  config, error));
    EXPECT_FALSE(error.empty());
}

TEST(SimlintReporters, JsonAndTextNameEveryFinding)
{
    const auto findings =
        simlint::lint({loadFixture("naked_new.cpp")}, Config{});
    ASSERT_EQ(findings.size(), 1u);
    const std::string json = simlint::renderJson(findings);
    EXPECT_NE(json.find("\"rule\":\"naked-new\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"line\":14"), std::string::npos) << json;
    const std::string text = simlint::renderText(findings);
    EXPECT_NE(text.find("naked_new.cpp:14:"), std::string::npos) << text;
}

} // namespace
