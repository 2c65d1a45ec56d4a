#include "linter.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <sstream>

#include "index.h"
#include "lexer.h"

namespace simlint {

namespace {

bool
pathHasPrefix(std::string path, const std::string &prefix)
{
    if (path.rfind("./", 0) == 0)
        path = path.substr(2);
    if (path == prefix)
        return true;
    return path.size() > prefix.size() && path.rfind(prefix, 0) == 0 &&
           (prefix.back() == '/' || path[prefix.size()] == '/');
}

/** The PDES shard-isolation gate: directories whose functions are the
 *  entry points of the shared-sim-state reachability analysis. */
const std::vector<std::string> &
simEntryDirs()
{
    static const std::vector<std::string> dirs = {
        "src/sim", "src/middletier", "src/net", "src/workload",
    };
    return dirs;
}

bool
inSimEntryDir(const std::string &path)
{
    for (const std::string &dir : simEntryDirs())
        if (pathHasPrefix(path, dir))
            return true;
    return false;
}

// ---------------------------------------------------------------------------
// Rule engine plumbing
// ---------------------------------------------------------------------------

struct Sink
{
    const std::string *path = nullptr;
    std::vector<Finding> *out = nullptr;

    void
    add(int line, const std::string &rule, const std::string &message) const
    {
        out->push_back({*path, line, rule, Severity::Error, message});
    }
};

const std::set<std::string> &
wallClockIdents()
{
    static const std::set<std::string> names = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "localtime",     "gmtime",        "mktime",
    };
    return names;
}

const std::set<std::string> &
rawRandIdents()
{
    static const std::set<std::string> names = {
        "random_device", "mt19937",      "mt19937_64",
        "default_random_engine", "minstd_rand", "minstd_rand0",
        "knuth_b",       "ranlux24",     "ranlux48",
    };
    return names;
}

// --- wall-clock ------------------------------------------------------------

void
ruleWallClock(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident())
            continue;
        if (wallClockIdents().count(t[i].text)) {
            sink.add(t[i].line, "wall-clock",
                     "'" + t[i].text + "' reads host time; simulations "
                     "must use sim::Simulator::now()");
            continue;
        }
        const bool call = i + 1 < t.size() && t[i + 1].is("(");
        if (call && (t[i].is("time") || t[i].is("clock"))) {
            sink.add(t[i].line, "wall-clock",
                     "'" + t[i].text + "()' reads host time; simulations "
                     "must use sim::Simulator::now()");
        }
    }
}

// --- raw-rand ---------------------------------------------------------------

void
ruleRawRand(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident())
            continue;
        if (rawRandIdents().count(t[i].text)) {
            sink.add(t[i].line, "raw-rand",
                     "'" + t[i].text + "' is unseeded/implementation-"
                     "defined; use the seeded smartds::Rng "
                     "(src/common/random.h)");
            continue;
        }
        const bool call = i + 1 < t.size() && t[i + 1].is("(");
        if (call && (t[i].is("rand") || t[i].is("srand"))) {
            sink.add(t[i].line, "raw-rand",
                     "'" + t[i].text + "()' is not seed-deterministic; "
                     "use the seeded smartds::Rng (src/common/random.h)");
        }
    }
}

// --- unordered-iter ---------------------------------------------------------

/**
 * Collect, across the whole source set, identifiers declared with an
 * unordered container type (including one level of using-alias
 * indirection). Iterating such a container visits hash order, which
 * varies with seed/ASLR/libstdc++ version — any visit-order-dependent
 * result is a nondeterminism bug.
 */
struct UnorderedIndex
{
    std::set<std::string> vars;
    std::set<std::string> aliases;
};

void
collectUnorderedDecls(const std::vector<Token> &t, UnorderedIndex &index)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].is("unordered_map") && !t[i].is("unordered_set") &&
            !t[i].is("unordered_multimap") && !t[i].is("unordered_multiset"))
            continue;
        if (i + 1 >= t.size() || !t[i + 1].is("<"))
            continue;

        // `using Name = std::unordered_map<...>` / `typedef ... Name;`
        // record the alias; a second sweep resolves variables of alias
        // type.
        std::size_t back = i;
        while (back > 0 && !t[back - 1].is(";") && !t[back - 1].is("{") &&
               !t[back - 1].is("}"))
            --back;
        bool isUsing = false, isTypedef = false;
        std::string usingName;
        for (std::size_t j = back; j < i; ++j) {
            if (t[j].is("using") && j + 1 < i && t[j + 1].ident())
                usingName = t[j + 1].text, isUsing = true;
            if (t[j].is("typedef"))
                isTypedef = true;
        }

        const std::size_t close = matchForward(t, i + 1, "<", ">");
        if (close == std::string::npos)
            continue;
        std::size_t j = close + 1;
        while (j < t.size() &&
               (t[j].is("&") || t[j].is("*") || t[j].is("const")))
            ++j;
        if (j >= t.size() || !t[j].ident())
            continue;
        if (isUsing) {
            index.aliases.insert(usingName);
            continue;
        }
        if (isTypedef) {
            index.aliases.insert(t[j].text);
            continue;
        }
        // Function returning an unordered container — not a variable.
        if (j + 1 < t.size() && t[j + 1].is("("))
            continue;
        index.vars.insert(t[j].text);
        // Comma-separated declarators: `map<K,V> a, b;`
        while (j + 1 < t.size() && t[j + 1].is(",") && j + 2 < t.size() &&
               t[j + 2].ident()) {
            index.vars.insert(t[j + 2].text);
            j += 2;
        }
    }
}

void
collectAliasVars(const std::vector<Token> &t, UnorderedIndex &index)
{
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].ident() && index.aliases.count(t[i].text) &&
            t[i + 1].ident() &&
            (i + 2 >= t.size() || !t[i + 2].is("(")))
            index.vars.insert(t[i + 1].text);
    }
}

void
ruleUnorderedIter(const FileUnit &ctx, const UnorderedIndex &index,
                  const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].is("for") || !t[i + 1].is("("))
            continue;
        const std::size_t close = matchForward(t, i + 1, "(", ")");
        if (close == std::string::npos)
            continue;
        // Range-for: a ':' at parenthesis depth 1.
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (t[j].is("("))
                ++depth;
            else if (t[j].is(")"))
                --depth;
            else if (t[j].is(":") && depth == 1) {
                colon = j;
                break;
            }
        }
        if (colon != std::string::npos) {
            for (std::size_t j = colon + 1; j < close; ++j) {
                const std::string &name = t[j].text;
                if (t[j].ident() &&
                    (index.vars.count(name) ||
                     name.rfind("unordered_", 0) == 0)) {
                    sink.add(t[i].line, "unordered-iter",
                             "range-for over unordered container '" +
                                 name + "' visits hash order; use "
                                 "std::map or a sorted vector if any "
                                 "result depends on visit order");
                    break;
                }
            }
            continue;
        }
        // Iterator-style: `ident.begin()` / `ident->begin()` in header.
        for (std::size_t j = i + 2; j + 2 < close; ++j) {
            if (t[j].ident() && index.vars.count(t[j].text) &&
                (t[j + 1].is(".") || t[j + 1].is("->")) &&
                t[j + 2].is("begin")) {
                sink.add(t[i].line, "unordered-iter",
                         "iterator loop over unordered container '" +
                             t[j].text + "' visits hash order; use "
                             "std::map or a sorted vector if any result "
                             "depends on visit order");
                break;
            }
        }
    }
}

// --- mutable-global (index-backed) -----------------------------------------

/**
 * Per-file view of the cross-TU symbol pass: every mutable static /
 * namespace-scope variable is a finding at its declaration. The
 * shared-sim-state rule reports the same declarations when they are
 * reachable from the simulation — rules.toml path-allows this rule
 * inside the entry directories so the sharper rule supersedes it there.
 */
void
ruleMutableGlobal(const SymbolIndex &index,
                  std::map<std::string, std::vector<Finding>> &byFile)
{
    for (const MutableState &m : index.mutables) {
        const std::string message =
            m.staticKeyword
                ? "mutable static '" + m.name + "' is shared state "
                  "across Simulator instances; thread it through the "
                  "owning object instead"
                : "non-const global '" + m.name + "' breaks run-to-run "
                  "determinism and concurrent sweeps; make it const or "
                  "move it into the owning object";
        byFile[m.file].push_back(
            {m.file, m.line, "mutable-global", Severity::Error, message});
    }
}

// --- shared-sim-state -------------------------------------------------------

/**
 * The PDES shard-isolation gate. Roots are all functions defined under
 * the simulation entry directories; reachability follows the
 * name-based call graph. A mutable static / global is a finding when it
 * is (a) declared inside an entry directory, (b) a function-local
 * static whose owning function is reached, or (c) a namespace/class
 * static referenced inside any reached function. Name-based matching
 * over-approximates — the conservative direction for a safety gate.
 */
void
ruleSharedSimState(const SymbolIndex &index,
                   std::map<std::string, std::vector<Finding>> &byFile)
{
    std::set<std::string> roots;
    for (const auto &[name, defs] : index.functions)
        for (const FunctionDef &def : defs)
            if (inSimEntryDir(def.file))
                roots.insert(name);
    const std::map<std::string, std::string> reached =
        reachableFunctions(index, roots);

    // global name -> reached functions referencing it (deterministic
    // order: functions map is name-sorted, defs keep file order).
    std::map<std::string, std::vector<const FunctionDef *>> referencedBy;
    for (const auto &[name, defs] : index.functions)
        for (const FunctionDef &def : defs)
            for (const std::string &g : def.globalRefs)
                referencedBy[g].push_back(&def);

    for (const MutableState &m : index.mutables) {
        const bool inEntry = inSimEntryDir(m.file);
        std::string via, root;
        bool hit = inEntry;
        if (!hit && m.kind == MutableState::Kind::FunctionStatic) {
            const auto it = reached.find(m.owner);
            if (!m.owner.empty() && it != reached.end()) {
                hit = true;
                via = m.owner;
                root = it->second;
            }
        } else if (!hit) {
            const auto refs = referencedBy.find(m.name);
            if (refs != referencedBy.end()) {
                for (const FunctionDef *def : refs->second) {
                    const auto it = reached.find(def->name);
                    if (it != reached.end()) {
                        hit = true;
                        via = def->name;
                        root = it->second;
                        break;
                    }
                }
            }
        }
        if (!hit)
            continue;
        const char *kindWord =
            m.kind == MutableState::Kind::FunctionStatic
                ? "function-local static"
                : m.kind == MutableState::Kind::ClassStatic
                      ? "static data member"
                      : "namespace-scope state";
        std::string message;
        if (inEntry) {
            message = "mutable " + std::string(kindWord) + " '" + m.name +
                      "' is declared in a simulation entry directory; "
                      "PDES shard isolation needs per-Simulator ownership "
                      "— move it into the owning object, or suppress with "
                      "a justification if it is genuinely per-process";
        } else {
            message = "mutable " + std::string(kindWord) + " '" + m.name +
                      "' is transitively reachable from simulation entry "
                      "point '" + root + "' via '" + via + "'; PDES "
                      "shards cannot share it — key it per Simulator, or "
                      "suppress with a justification if it is genuinely "
                      "per-process";
        }
        byFile[m.file].push_back({m.file, m.line, "shared-sim-state",
                                  Severity::Error, std::move(message)});
    }
}

// --- ptr-keyed-container ----------------------------------------------------

/**
 * Containers keyed or ordered by raw pointer value iterate in
 * allocation-address order, which varies with ASLR/allocator state run
 * to run. An explicit extra template argument (comparator for ordered
 * containers, hasher for unordered ones) opts out: the author has taken
 * responsibility for determinism.
 */
void
rulePtrKeyedContainer(const FileUnit &ctx, const Sink &sink)
{
    static const std::set<std::string> shortNames = {
        "map", "set", "multimap", "multiset",
    };
    static const std::set<std::string> longNames = {
        "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset",
    };
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident() || !t[i + 1].is("<"))
            continue;
        const bool isShort = shortNames.count(t[i].text) != 0;
        const bool isLong = longNames.count(t[i].text) != 0;
        if (!isShort && !isLong)
            continue;
        // Bare `map`/`set` collide with local names; require `::map`.
        if (isShort && (i == 0 || !t[i - 1].is("::")))
            continue;
        const std::size_t close = matchForward(t, i + 1, "<", ">");
        if (close == std::string::npos)
            continue;
        bool ptrInKey = false;
        std::size_t args = 1;
        int depth = 0;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (t[j].is("<") || t[j].is("("))
                ++depth;
            else if (t[j].is(">") || t[j].is(")"))
                --depth;
            else if (depth == 0 && t[j].is(","))
                ++args;
            else if (args == 1 && t[j].is("*"))
                ptrInKey = true;
        }
        if (!ptrInKey)
            continue;
        const bool isMap = t[i].text.find("map") != std::string::npos;
        const std::size_t defaultArgs = isMap ? 2 : 1;
        if (args > defaultArgs)
            continue; // explicit comparator / hasher supplied
        sink.add(t[i].line, "ptr-keyed-container",
                 "'" + t[i].text + "' keyed by pointer value; visit "
                 "order follows allocation addresses and varies run to "
                 "run — key by a stable id, or supply an explicit "
                 "deterministic comparator");
    }
}

// --- event-handle-misuse ----------------------------------------------------

/**
 * Two shapes of event-lifetime bug:
 *  (a) cancelling (or querying) through a handle that was moved from —
 *      the moved-from handle no longer names the live generation;
 *  (b) storing a raw integer event slot index — slots are recycled, so
 *      a stale index silently cancels an unrelated event. Only fires in
 *      files that actually traffic in events (mention EventHandle or
 *      schedule/scheduleAt).
 */
void
ruleEventHandleMisuse(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;

    bool mentionsEvents = false;
    for (const Token &tok : t) {
        if (tok.is("EventHandle") || tok.is("schedule") ||
            tok.is("scheduleAt")) {
            mentionsEvents = true;
            break;
        }
    }

    // (a) moved-from handle use. Track `std::move(name)` per brace
    // depth; a reassignment revives the name, leaving the scope kills
    // the record.
    std::map<std::string, int> moved; // name -> brace depth at the move
    int depth = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].is("{")) {
            ++depth;
            continue;
        }
        if (t[i].is("}")) {
            --depth;
            for (auto it = moved.begin(); it != moved.end();)
                it = it->second > depth ? moved.erase(it) : std::next(it);
            continue;
        }
        if (t[i].is("move") && i + 3 < t.size() && t[i + 1].is("(") &&
            t[i + 2].ident() && t[i + 3].is(")")) {
            moved[t[i + 2].text] = depth;
            continue;
        }
        if (!t[i].ident() || !moved.count(t[i].text))
            continue;
        // `name = ...` (not `==`/`!=`) revives the handle.
        if (i + 1 < t.size() && t[i + 1].is("=") &&
            (i + 2 >= t.size() || !t[i + 2].is("=")) &&
            (i == 0 || (!t[i - 1].is("=") && !t[i - 1].is("!") &&
                        !t[i - 1].is("<") && !t[i - 1].is(">")))) {
            moved.erase(t[i].text);
            continue;
        }
        if (i + 2 < t.size() && t[i + 1].is(".") &&
            (t[i + 2].is("cancel") || t[i + 2].is("pending"))) {
            sink.add(t[i].line, "event-handle-misuse",
                     "'" + t[i].text + "' was moved from; '" +
                     t[i + 2].text + "()' through a moved-from "
                     "EventHandle targets a dead generation — call it "
                     "before the move, or use the handle it moved into");
        }
    }

    // (b) raw integer slot storage.
    if (!mentionsEvents)
        return;
    static const std::set<std::string> intTypes = {
        "int",      "unsigned", "long",     "short",
        "int16_t",  "int32_t",  "int64_t",  "uint16_t",
        "uint32_t", "uint64_t", "size_t",   "ptrdiff_t",
    };
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!intTypes.count(t[i].text) || !t[i + 1].ident())
            continue;
        if (i > 0 && (t[i - 1].is(".") || t[i - 1].is("->")))
            continue;
        std::string lower = t[i + 1].text;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (lower.find("slot") == std::string::npos)
            continue;
        sink.add(t[i + 1].line, "event-handle-misuse",
                 "raw integer '" + t[i + 1].text + "' stores an event "
                 "slot index; slots are recycled, so a stale index "
                 "cancels an unrelated event — store the generation-"
                 "counted sim::EventHandle instead");
    }
}

// --- span-imbalance ---------------------------------------------------------

struct SpanInfo
{
    std::vector<int> openLines; ///< `.mark = <nonzero>` sites
    int closes = 0;             ///< `.mark = 0` sites
};

SpanInfo
collectSpans(const std::vector<Token> &t)
{
    SpanInfo info;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!(t[i].is(".") || t[i].is("->")) || !t[i + 1].is("mark") ||
            !t[i + 2].is("="))
            continue;
        // `mark ==` is a comparison, not an open/close.
        if (i + 3 < t.size() && t[i + 3].is("="))
            continue;
        if (i + 3 < t.size() && t[i + 3].is("0"))
            ++info.closes;
        else
            info.openLines.push_back(t[i + 1].line);
    }
    return info;
}

/**
 * A trace span is opened by writing a nonzero tick into a TraceContext
 * `mark` and closed by zeroing it after Tracer::record(). An open with
 * no close anywhere in the file or its direct include-graph neighbours
 * leaks the span: the next record() on that context measures from the
 * stale mark.
 */
void
ruleSpanImbalance(const std::vector<FileUnit> &units,
                  const SymbolIndex &index,
                  std::map<std::string, std::vector<Finding>> &byFile)
{
    std::map<std::string, SpanInfo> spans;
    for (const FileUnit &unit : units)
        spans[unit.path] = collectSpans(unit.tokens);

    for (const FileUnit &unit : units) {
        const SpanInfo &own = spans[unit.path];
        if (own.openLines.empty())
            continue;
        int closes = own.closes;
        auto addNeighbours = [&](const std::map<std::string,
                                                std::vector<std::string>>
                                     &edges) {
            const auto it = edges.find(unit.path);
            if (it == edges.end())
                return;
            for (const std::string &n : it->second)
                closes += spans[n].closes;
        };
        addNeighbours(index.includes);
        addNeighbours(index.includedBy);
        if (closes > 0)
            continue;
        for (const int line : own.openLines)
            byFile[unit.path].push_back(
                {unit.path, line, "span-imbalance", Severity::Error,
                 "trace span opened here (`mark = tick`) but never "
                 "closed (`mark = 0`) in this file or its direct "
                 "includes; the next Tracer::record() on this context "
                 "will measure from a stale mark"});
    }
}

// --- raw-io -----------------------------------------------------------------

void
ruleRawIo(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].ident())
            continue;
        const bool call = i + 1 < t.size() && t[i + 1].is("(");
        if (call && (t[i].is("printf") || t[i].is("puts") ||
                     t[i].is("putchar") || t[i].is("vprintf"))) {
            sink.add(t[i].line, "raw-io",
                     "'" + t[i].text + "' writes raw stdout; route "
                     "output through common/logging (inform/warn) so it "
                     "respects quiet mode and does not interleave under "
                     "parallel sweeps");
            continue;
        }
        if (call && t[i].is("fprintf") && i + 2 < t.size() &&
            (t[i + 2].is("stdout") || t[i + 2].is("stderr"))) {
            sink.add(t[i].line, "raw-io",
                     "'fprintf(" + t[i + 2].text + ", ...)' bypasses "
                     "common/logging; use inform/warn instead");
            continue;
        }
        if ((t[i].is("cout") || t[i].is("cerr") || t[i].is("clog")) &&
            i >= 1 && t[i - 1].is("::") && i >= 2 && t[i - 2].is("std")) {
            sink.add(t[i].line, "raw-io",
                     "'std::" + t[i].text + "' bypasses common/logging; "
                     "use inform/warn (or the bench harness) instead");
        }
    }
}

// --- naked-new --------------------------------------------------------------

void
ruleNakedNew(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].is("new"))
            continue;
        // Placement new (`new (addr) T`, `::new (addr) T`) does not own.
        if (i + 1 < t.size() && t[i + 1].is("("))
            continue;
        if (i >= 1 && t[i - 1].is("::"))
            continue;
        // A `new` whose full statement hands ownership to a smart
        // pointer is managed, not naked.
        std::size_t b = i;
        while (b > 0 && !t[b - 1].is(";") && !t[b - 1].is("{") &&
               !t[b - 1].is("}"))
            --b;
        std::size_t e = i;
        while (e < t.size() && !t[e].is(";") && !t[e].is("{"))
            ++e;
        bool managed = false;
        for (std::size_t j = b; j < e; ++j) {
            if (t[j].is("unique_ptr") || t[j].is("shared_ptr") ||
                t[j].is("make_unique") || t[j].is("make_shared") ||
                t[j].is("reset")) {
                managed = true;
                break;
            }
        }
        if (!managed)
            sink.add(t[i].line, "naked-new",
                     "naked owning 'new' in the datapath; use "
                     "std::make_unique/make_shared or a pool");
    }
}

// --- tick-float -------------------------------------------------------------

/**
 * Whether [b,e) contains float-typed tokens. With @p topLevelOnly, only
 * tokens outside nested parentheses count — a float literal passed as a
 * function *argument* (`run(0.0)`) is not float arithmetic on the
 * result.
 */
bool
spanHasFloatiness(const std::vector<Token> &t, std::size_t b, std::size_t e,
                  bool topLevelOnly = false)
{
    int depth = 0;
    for (std::size_t j = b; j < e; ++j) {
        if (t[j].is("("))
            ++depth;
        else if (t[j].is(")"))
            --depth;
        else if ((!topLevelOnly || depth == 0) &&
                 (t[j].floatLiteral() || t[j].is("double") ||
                  t[j].is("float")))
            return true;
    }
    return false;
}

void
ruleTickFloat(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        // static_cast<Tick>(<float-tainted expr>)
        if (t[i].is("static_cast") && i + 4 < t.size() && t[i + 1].is("<") &&
            (t[i + 2].is("Tick") || t[i + 2].is("TickDelta")) &&
            t[i + 3].is(">") && t[i + 4].is("(")) {
            const std::size_t close = matchForward(t, i + 4, "(", ")");
            if (close != std::string::npos &&
                spanHasFloatiness(t, i + 5, close)) {
                sink.add(t[i].line, "tick-float",
                         "float arithmetic narrowed into a Tick; "
                         "rounding can reorder events across platforms "
                         "— compute ticks in integers (see "
                         "common/time.h)");
            }
            continue;
        }
        // `Tick name = <expr with float literal>;`
        if ((t[i].is("Tick") || t[i].is("TickDelta")) && i + 2 < t.size() &&
            t[i + 1].ident() && t[i + 2].is("=")) {
            std::size_t e = i + 3;
            while (e < t.size() && !t[e].is(";"))
                ++e;
            bool casted = false;
            for (std::size_t j = i + 3; j < e; ++j)
                if (t[j].is("static_cast"))
                    casted = true; // the cast form above already covers it
            if (!casted && spanHasFloatiness(t, i + 3, e, true))
                sink.add(t[i].line, "tick-float",
                         "Tick '" + t[i + 1].text + "' initialized from "
                         "float arithmetic; compute ticks in integers "
                         "(see common/time.h)");
        }
    }
}

// --- missing-nodiscard ------------------------------------------------------

void
ruleMissingNodiscard(const FileUnit &ctx, const Sink &sink)
{
    const std::string &path = ctx.path;
    if (path.size() < 2 || path.compare(path.size() - 2, 2, ".h") != 0)
        return; // declarations live in headers; definitions repeat them
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].is("optional") || i + 1 >= t.size() || !t[i + 1].is("<"))
            continue;
        const std::size_t close = matchForward(t, i + 1, "<", ">");
        if (close == std::string::npos)
            continue;
        std::size_t j = close + 1;
        if (j + 1 >= t.size() || !t[j].ident() || !t[j + 1].is("("))
            continue; // not a function declaration returning optional
        // Scan back over the declaration for a [[nodiscard]] attribute.
        std::size_t b = i;
        while (b > 0 && !t[b - 1].is(";") && !t[b - 1].is("{") &&
               !t[b - 1].is("}") && !t[b - 1].is(":"))
            --b;
        bool nodiscard = false;
        for (std::size_t k = b; k < i; ++k)
            if (t[k].is("nodiscard"))
                nodiscard = true;
        if (!nodiscard)
            sink.add(t[i].line, "missing-nodiscard",
                     "'" + t[j].text + "' returns std::optional (an "
                     "error signal); declare it [[nodiscard]] so "
                     "callers cannot silently drop failures");
    }
}

// --- block-copy -------------------------------------------------------------

/**
 * SyntheticCorpus::sampleBlock() materialises a fresh vector copy of a
 * corpus block on every call. That is fine in tests and examples, but on
 * the functional datapath it defeats the zero-copy design: block bytes
 * are meant to be handed out as aliased shared_ptrs into the corpus
 * block cache (sampleBlockPtr()/sampleBlockIndex() + BlockCodecCache).
 */
void
ruleBlockCopy(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident() || !t[i].is("sampleBlock"))
            continue;
        if (!t[i + 1].is("("))
            continue;
        sink.add(t[i].line, "block-copy",
                 "'sampleBlock()' copies a corpus block per call; "
                 "datapath code must use sampleBlockPtr()/"
                 "sampleBlockIndex() or the BlockCodecCache's zero-copy "
                 "entries");
    }
}

// --- cross-shard-state ------------------------------------------------------

/**
 * Scheduling straight onto another timing domain's simulator —
 * `cluster.domain(d).scheduleAt(...)` — bypasses the lookahead-checked
 * cross-domain channels. The event lands without the (tick, srcDomain,
 * seq) merge, so its position relative to genuinely channeled events
 * depends on which shard got there first: results stop being invariant
 * in the shard count, the property every PDES run is verified against.
 * Cross-domain work must go through ClusterSim::post() (or ride a
 * fabric message, which routes through post() itself).
 */
void
ruleCrossShardState(const FileUnit &ctx, const Sink &sink)
{
    const auto &t = ctx.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident() || !t[i].is("domain"))
            continue;
        if (!t[i + 1].is("("))
            continue;
        const std::size_t close = matchForward(t, i + 1, "(", ")");
        if (close == std::string::npos || close + 2 >= t.size())
            continue;
        if (!t[close + 1].is(".") && !t[close + 1].is("->"))
            continue;
        if (!t[close + 2].is("schedule") && !t[close + 2].is("scheduleAt"))
            continue;
        if (close + 3 >= t.size() || !t[close + 3].is("("))
            continue;
        sink.add(t[i].line, "cross-shard-state",
                 "scheduling directly onto a timing domain fetched with "
                 "domain(d) bypasses the lookahead-checked cross-domain "
                 "channels; the event skips the (tick, srcDomain, seq) "
                 "merge and results stop being shard-count invariant — "
                 "use ClusterSim::post() (or a fabric message)");
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        "wall-clock",       "raw-rand",          "unordered-iter",
        "mutable-global",   "shared-sim-state",  "ptr-keyed-container",
        "event-handle-misuse", "span-imbalance",
        "raw-io",           "naked-new",         "tick-float",
        "missing-nodiscard", "block-copy",       "cross-shard-state",
        "bad-suppression",
    };
    return rules;
}

Severity
Config::severityFor(const std::string &rule) const
{
    const auto it = rules.find(rule);
    return it == rules.end() ? Severity::Error : it->second.severity;
}

bool
Config::allowsPath(const std::string &rule, const std::string &path) const
{
    const auto it = rules.find(rule);
    if (it == rules.end())
        return false;
    for (const std::string &prefix : it->second.allow)
        if (pathHasPrefix(path, prefix))
            return true;
    return false;
}

bool
parseRulesConfig(const std::string &text, Config &config,
                 std::string &error)
{
    std::istringstream in(text);
    std::string line;
    std::string section;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string s = trim(line);
        if (s.empty() || s[0] == '#')
            continue;
        if (s.front() == '[') {
            if (s == "[lint]") {
                section = "@lint";
                continue;
            }
            if (s.back() != ']' || s.rfind("[rules.", 0) != 0) {
                error = "line " + std::to_string(lineNo) +
                        ": expected [lint] or [rules.<id>] section, got '" +
                        s + "'";
                return false;
            }
            section = s.substr(7, s.size() - 8);
            const auto &known = allRules();
            if (std::find(known.begin(), known.end(), section) ==
                known.end()) {
                error = "line " + std::to_string(lineNo) +
                        ": unknown rule '" + section + "'";
                return false;
            }
            config.rules[section]; // materialize with defaults
            continue;
        }
        const std::size_t eq = s.find('=');
        if (eq == std::string::npos || section.empty()) {
            error = "line " + std::to_string(lineNo) +
                    ": expected key = value inside a [rules.<id>] section";
            return false;
        }
        const std::string key = trim(s.substr(0, eq));
        const std::string value = trim(s.substr(eq + 1));
        auto parseStringArray = [&](std::vector<std::string> &out) {
            if (value.size() < 2 || value.front() != '[' ||
                value.back() != ']') {
                error = "line " + std::to_string(lineNo) + ": '" + key +
                        "' must be a [\"...\"] array on one line";
                return false;
            }
            std::string inside = value.substr(1, value.size() - 2);
            std::istringstream items(inside);
            std::string item;
            while (std::getline(items, item, ',')) {
                item = trim(item);
                if (item.size() >= 2 && item.front() == '"' &&
                    item.back() == '"')
                    out.push_back(item.substr(1, item.size() - 2));
                else if (!item.empty()) {
                    error = "line " + std::to_string(lineNo) + ": '" + key +
                            "' entries must be quoted strings";
                    return false;
                }
            }
            return true;
        };
        if (section == "@lint") {
            if (key != "exclude") {
                error = "line " + std::to_string(lineNo) +
                        ": [lint] only supports 'exclude'";
                return false;
            }
            if (!parseStringArray(config.exclude))
                return false;
            continue;
        }
        RuleConfig &rule = config.rules[section];
        if (key == "severity") {
            if (value == "\"off\"")
                rule.severity = Severity::Off;
            else if (value == "\"warn\"")
                rule.severity = Severity::Warn;
            else if (value == "\"error\"")
                rule.severity = Severity::Error;
            else {
                error = "line " + std::to_string(lineNo) +
                        ": severity must be \"off\", \"warn\" or "
                        "\"error\"";
                return false;
            }
        } else if (key == "allow") {
            if (!parseStringArray(rule.allow))
                return false;
        } else {
            error = "line " + std::to_string(lineNo) + ": unknown key '" +
                    key + "'";
            return false;
        }
    }
    return true;
}

std::vector<Finding>
lint(const std::vector<Source> &sources, const Config &config)
{
    std::vector<FileUnit> units;
    units.reserve(sources.size());
    UnorderedIndex uidx;
    for (const Source &src : sources) {
        bool excluded = false;
        for (const std::string &prefix : config.exclude)
            if (pathHasPrefix(src.path, prefix))
                excluded = true;
        if (excluded)
            continue;
        FileUnit unit;
        unit.path = src.path;
        unit.stripped = stripFile(src.text);
        unit.tokens = tokenize(unit.stripped.code);
        collectUnorderedDecls(unit.tokens, uidx);
        units.push_back(std::move(unit));
    }
    for (const FileUnit &unit : units)
        collectAliasVars(unit.tokens, uidx);
    const SymbolIndex index = buildIndex(units);

    // Raw findings, grouped by the file they are attributed to. Local
    // rules only ever report into their own file; the cross-TU rules
    // report at the declaration they flag, so suppressions and allow
    // lists apply in the declaring file.
    std::map<std::string, std::vector<Finding>> byFile;
    for (const FileUnit &unit : units) {
        const Sink sink{&unit.path, &byFile[unit.path]};
        ruleWallClock(unit, sink);
        ruleRawRand(unit, sink);
        ruleUnorderedIter(unit, uidx, sink);
        rulePtrKeyedContainer(unit, sink);
        ruleEventHandleMisuse(unit, sink);
        ruleRawIo(unit, sink);
        ruleNakedNew(unit, sink);
        ruleTickFloat(unit, sink);
        ruleMissingNodiscard(unit, sink);
        ruleBlockCopy(unit, sink);
        ruleCrossShardState(unit, sink);
    }
    ruleMutableGlobal(index, byFile);
    ruleSharedSimState(index, byFile);
    ruleSpanImbalance(units, index, byFile);

    std::vector<Finding> findings;
    for (const FileUnit &unit : units) {
        std::vector<Finding> &raw = byFile[unit.path];

        // Validate suppressions and build the (line -> rules) map.
        std::map<int, std::set<std::string>> allowed;
        for (const auto &[line, sup] : unit.stripped.suppressions) {
            // A standalone suppression comment covers the next statement
            // that holds code — from the first code line through the line
            // that closes it — so multi-line justification comments and
            // multi-line statements both work.
            int target = line;
            int targetEnd = line;
            if (sup.standalone) {
                const auto &code = unit.stripped.code;
                const int n = static_cast<int>(code.size());
                int next = line; // `line` is 1-based; code[line] is next
                while (next < n && trim(code[next]).empty())
                    ++next;
                target = next + 1;
                targetEnd = target;
                while (targetEnd <= n) {
                    const std::string t = trim(code[targetEnd - 1]);
                    if (!t.empty() &&
                        (t.back() == ';' || t.back() == '{' ||
                         t.back() == '}'))
                        break;
                    ++targetEnd;
                }
                if (targetEnd > n)
                    targetEnd = n;
            }
            bool ok = sup.justified && !sup.rules.empty();
            for (const std::string &rule : sup.rules) {
                const auto &known = allRules();
                if (std::find(known.begin(), known.end(), rule) ==
                    known.end())
                    ok = false;
                else
                    for (int covered = target; covered <= targetEnd;
                         ++covered)
                        allowed[covered].insert(rule);
            }
            if (!ok)
                raw.push_back(
                    {unit.path, line, "bad-suppression",
                     Severity::Error,
                     sup.rules.empty()
                         ? "malformed suppression; use `// simlint: "
                           "allow(<rule>): <justification>`"
                         : (sup.justified
                                ? "suppression names an unknown rule"
                                : "suppression is missing its mandatory "
                                  "justification (`: <why this is "
                                  "safe>`)")});
        }

        for (Finding &f : raw) {
            const Severity sev = config.severityFor(f.rule);
            if (sev == Severity::Off)
                continue;
            if (config.allowsPath(f.rule, f.file))
                continue;
            const auto it = allowed.find(f.line);
            if (f.rule != "bad-suppression" && it != allowed.end() &&
                it->second.count(f.rule))
                continue;
            f.severity = sev;
            findings.push_back(std::move(f));
        }
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

namespace {

/** Trimmed text of @p line (1-based) in @p text, or "" out of range. */
std::string
lineText(const std::string &text, int line)
{
    std::istringstream in(text);
    std::string s;
    for (int i = 0; i < line && std::getline(in, s); ++i)
        ;
    return trim(s);
}

} // namespace

std::vector<Finding>
diffNewFindings(const std::vector<Finding> &current,
                const std::vector<Source> &currentSources,
                const std::vector<Finding> &base,
                const std::vector<Source> &baseSources)
{
    auto textOf = [](const std::vector<Source> &sources,
                     const std::string &path) -> const std::string * {
        for (const Source &src : sources)
            if (src.path == path)
                return &src.text;
        return nullptr;
    };
    // Multiset of base findings keyed by (file, rule, offending line
    // text) — line numbers shift under unrelated edits, text does not.
    std::map<std::string, int> seen;
    for (const Finding &f : base) {
        const std::string *text = textOf(baseSources, f.file);
        seen[f.file + "\x1f" + f.rule + "\x1f" +
             (text ? lineText(*text, f.line) : "")]++;
    }
    std::vector<Finding> fresh;
    for (const Finding &f : current) {
        const std::string *text = textOf(currentSources, f.file);
        const std::string key = f.file + "\x1f" + f.rule + "\x1f" +
                                (text ? lineText(*text, f.line) : "");
        const auto it = seen.find(key);
        if (it != seen.end() && it->second > 0)
            --it->second;
        else
            fresh.push_back(f);
    }
    return fresh;
}

std::string
renderText(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": " +
               (f.severity == Severity::Warn ? "warning" : "error") + "[" +
               f.rule + "] " + f.message + "\n";
    }
    return out;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:   out += c; break;
        }
    }
    return out;
}

} // namespace

std::string
renderJson(const std::vector<Finding> &findings)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out += "  {\"file\":\"" + jsonEscape(f.file) +
               "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"" +
               jsonEscape(f.rule) + "\",\"severity\":\"" +
               (f.severity == Severity::Warn ? "warning" : "error") +
               "\",\"message\":\"" + jsonEscape(f.message) + "\"}";
        out += i + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

std::string
renderSarif(const std::vector<Finding> &findings)
{
    std::string out =
        "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [{\n"
        "    \"tool\": {\"driver\": {\n"
        "      \"name\": \"simlint\",\n"
        "      \"informationUri\": \"README.md\",\n"
        "      \"rules\": [\n";
    const auto &rules = allRules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out += "        {\"id\": \"" + jsonEscape(rules[i]) + "\"}";
        out += i + 1 < rules.size() ? ",\n" : "\n";
    }
    out += "      ]\n"
           "    }},\n"
           "    \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out += "      {\"ruleId\": \"" + jsonEscape(f.rule) +
               "\", \"level\": \"" +
               (f.severity == Severity::Warn ? "warning" : "error") +
               "\", \"message\": {\"text\": \"" + jsonEscape(f.message) +
               "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"" + jsonEscape(f.file) +
               "\"}, \"region\": {\"startLine\": " +
               std::to_string(f.line) + "}}}]}";
        out += i + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "    ]\n"
           "  }]\n"
           "}\n";
    return out;
}

} // namespace simlint
