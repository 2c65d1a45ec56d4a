#include "corpus/corpus.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <string_view>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "lz4/lz4.h"

namespace smartds::corpus {

namespace {

// Each generator writes its bytes in place at `out` and returns how many
// it wrote. It checks its share only between records, so the last record
// runs past the share; the caller drops those bytes, but the draws made
// for them stay in the stream, where the next part's draws depend on
// them. No write lands kSlack or more bytes past the share: the longest
// record is a 64-byte database row (an XML line is at most 56 bytes, its
// prologue 32; text moves whole 16-byte word and 32-byte phrase fields;
// scientific 24, executable 10, imaging 2). So `out` must hold the share
// plus kSlack bytes.
constexpr std::size_t kSlack = 64;

/** Copy @p s to @p out + @p pos and advance @p pos past it. */
inline void
put(std::uint8_t *out, std::size_t &pos, std::string_view s)
{
    std::memcpy(out + pos, s.data(), s.size());
    pos += s.size();
}

/**
 * A string in a zero-padded N-byte field: writing it is one fixed-size
 * move of all N bytes, and the bytes past its length are overwritten by
 * the next write or land in the slack.
 */
template <std::size_t N>
struct Padded
{
    char chars[N] = {};
    std::size_t size = 0;

    template <std::size_t M>
    constexpr Padded(const char (&s)[M]) : size(M - 1)
    {
        static_assert(M - 1 <= N, "string longer than its field");
        for (std::size_t i = 0; i < size; ++i)
            chars[i] = s[i];
    }
};

template <std::size_t N>
inline void
put(std::uint8_t *out, std::size_t &pos, const Padded<N> &s)
{
    std::memcpy(out + pos, s.chars, N);
    pos += s.size;
}

// ------------------------------------------------------------------ Text

constexpr Padded<16> vocabulary[] = {
    "the",      "of",        "and",      "a",         "to",       "in",
    "he",       "was",       "that",     "it",        "his",      "her",
    "with",     "as",        "had",      "for",       "she",      "not",
    "at",       "but",       "be",       "on",        "they",     "have",
    "him",      "which",     "said",     "from",      "all",      "this",
    "when",     "were",      "would",    "there",     "been",     "their",
    "one",      "could",     "very",     "an",        "some",     "them",
    "more",     "out",       "into",     "man",       "up",       "time",
    "little",   "about",     "storage",  "request",   "server",   "memory",
    "network",  "compress",  "message",  "latency",   "cloud",    "virtual",
    "machine",  "segment",   "chunk",    "header",    "payload",  "through",
    "whatever", "certainly", "together", "character", "business", "morning",
};
constexpr std::size_t vocabularySize = std::size(vocabulary);

/**
 * Word rank in [0, @p n): one uniform draw raised to the power @p s + 1.
 * A power law whose head is far heavier than Zipf's rank^-s; the pinned
 * corpus bytes and compression ratios are built on this exact
 * arithmetic, so it stays as it is.
 */
std::size_t
wordRank(Rng &rng, std::size_t n, double s)
{
    const double v = std::pow(rng.uniform(), s + 1.0);
    const auto idx = static_cast<std::size_t>(v * static_cast<double>(n));
    return idx >= n ? n - 1 : idx;
}

std::size_t
generateText(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Recurring stock phrases model the multi-word repetition real prose
    // has (names, idioms) that single-word sampling misses.
    static constexpr Padded<32> phrases[] = {
        "the middle tier server ",
        "it was the best of times ",
        "in the course of the morning ",
        "as a matter of fact ",
    };
    std::size_t pos = 0;
    std::size_t words_in_sentence = 0;
    while (pos < size) {
        if (words_in_sentence > 0 && rng.chance(0.12)) {
            put(out, pos, phrases[rng.below(4)]);
            words_in_sentence += 4;
            continue;
        }
        const std::size_t idx = wordRank(rng, vocabularySize, 1.0);
        if (words_in_sentence == 0 && pos > 0)
            out[pos++] = ' ';
        const std::size_t first = pos;
        put(out, pos, vocabulary[idx]);
        if (words_in_sentence == 0)
            out[first] = static_cast<std::uint8_t>(out[first] - 'a' + 'A');
        ++words_in_sentence;
        if (words_in_sentence > 6 && rng.chance(0.18)) {
            out[pos++] = '.';
            out[pos++] = rng.chance(0.1) ? '\n' : ' ';
            words_in_sentence = 0;
        } else if (rng.chance(0.05)) {
            put(out, pos, ", ");
        } else {
            out[pos++] = ' ';
        }
    }
    return pos;
}

// ------------------------------------------------------------------- XML

constexpr Padded<8> xmlTags[] = {"record", "molecule", "atom",  "bond",
                                 "entry",  "property", "value", "name",
                                 "item",   "field"};
constexpr std::size_t xmlTagCount = std::size(xmlTags);

std::size_t
generateXml(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Each record is `  <TAG id="0NN" type="T" unit="mol">W.F</TAG>\n`:
    // the middle is a fixed template with four characters patched in.
    static constexpr std::string_view middle =
        " id=\"0NN\" type=\"T\" unit=\"mol\">W.F</";
    static constexpr std::size_t idAt = middle.find('N');
    static constexpr std::size_t typeAt = middle.find('T');
    static constexpr std::size_t wholeAt = middle.find('W');
    static constexpr std::size_t fractionAt = middle.find('F');
    std::size_t pos = 0;
    put(out, pos, "<?xml version=\"1.0\"?>\n<dataset>\n");
    while (pos < size) {
        const Padded<8> &tag = xmlTags[rng.below(xmlTagCount)];
        // One statement per draw, in the order GCC evaluated them when they
        // were arguments of one call (right to left). C++ leaves argument
        // order unspecified, so that form gave each compiler its own
        // corpus bytes, and with them its own ratios and result CSVs.
        const std::uint64_t fraction = rng.below(10);
        const std::uint64_t whole = rng.below(10);
        const std::uint64_t type = rng.below(3);
        const std::uint64_t id = rng.below(100);
        put(out, pos, "  <");
        put(out, pos, tag);
        std::uint8_t *m = out + pos;
        put(out, pos, middle);
        m[idAt] = static_cast<std::uint8_t>('0' + id / 10);
        m[idAt + 1] = static_cast<std::uint8_t>('0' + id % 10);
        m[typeAt] = static_cast<std::uint8_t>('A' + type);
        m[wholeAt] = static_cast<std::uint8_t>('0' + whole);
        m[fractionAt] = static_cast<std::uint8_t>('0' + fraction);
        put(out, pos, tag);
        put(out, pos, ">\n");
    }
    return pos;
}

// -------------------------------------------------------------- Database

std::size_t
generateDatabase(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Fixed 64-byte records: id (8B ascending), low-cardinality category
    // bytes, a few correlated counters and a short fixed-alphabet string —
    // the shape of osdb-like row storage.
    std::size_t pos = 0;
    std::uint64_t id = 100000;
    while (pos < size) {
        std::uint8_t *rec = out + pos;
        std::memset(rec, 0, 64);
        std::memcpy(rec, &id, sizeof(id));
        ++id;
        rec[8] = static_cast<std::uint8_t>(rng.below(8));    // category
        rec[9] = static_cast<std::uint8_t>(rng.below(4));    // region
        rec[10] = static_cast<std::uint8_t>(rng.below(2));   // flag
        const std::uint32_t qty = static_cast<std::uint32_t>(rng.below(500));
        std::memcpy(rec + 12, &qty, sizeof(qty));
        const std::uint32_t price = qty * 99 + 1000;
        std::memcpy(rec + 16, &price, sizeof(price));
        static const char names[4][12] = {"WIDGET-STD ", "WIDGET-PRO ",
                                          "GADGET-MINI", "GADGET-MAX "};
        std::memcpy(rec + 20, names[rng.below(4)], 11);
        // Trailing padding stays zero (very compressible, like real rows).
        pos += 64;
    }
    return pos;
}

// ------------------------------------------------------------ Executable

std::size_t
generateExecutable(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Instruction-like stream: common opcode bytes with operand bytes of
    // mixed entropy, function prologues repeating every so often, and
    // embedded pointer-table runs. Tuned to land near mozilla/ooffice
    // block ratios (~0.65-0.8).
    static const std::uint8_t prologue[] = {0x55, 0x48, 0x89, 0xe5, 0x41,
                                            0x57, 0x41, 0x56, 0x53, 0x50};
    std::size_t pos = 0;
    while (pos < size) {
        const double what = rng.uniform();
        if (what < 0.12) {
            std::memcpy(out + pos, prologue, sizeof(prologue));
            pos += sizeof(prologue);
        } else if (what < 0.26) {
            // Pointer table: consecutive addresses, high bytes constant.
            std::uint64_t base = 0x00007f0000400000ULL + rng.below(1u << 20);
            for (int i = 0; i < 8 && pos < size; ++i) {
                std::uint64_t ptr = base + static_cast<std::uint64_t>(i) * 16;
                std::memcpy(out + pos, &ptr, sizeof(ptr));
                pos += sizeof(ptr);
            }
        } else {
            // A short "instruction": opcode from a small set + operands.
            static const std::uint8_t opcodes[] = {0x48, 0x8b, 0x89, 0xe8,
                                                   0xff, 0x83, 0xc3, 0x74,
                                                   0x75, 0x0f, 0x31, 0x85};
            out[pos++] = opcodes[rng.below(sizeof(opcodes))];
            const unsigned operands = 1 + static_cast<unsigned>(rng.below(4));
            for (unsigned i = 0; i < operands; ++i) {
                out[pos++] = rng.chance(0.5)
                                 ? static_cast<std::uint8_t>(rng.below(16))
                                 : static_cast<std::uint8_t>(rng.below(256));
            }
        }
    }
    return pos;
}

// ------------------------------------------------------------ Scientific

std::size_t
generateScientific(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // sao-like star-catalogue records: double-precision values whose
    // exponent bytes repeat but whose mantissa bytes are noise; barely
    // compressible (~0.9).
    std::size_t pos = 0;
    double ra = 0.0;
    while (pos < size) {
        ra += rng.uniform() * 1e-3;
        const double dec = (rng.uniform() - 0.5) * 3.14159;
        const float mag = static_cast<float>(5.0 + rng.uniform() * 10.0);
        const std::uint32_t cat = static_cast<std::uint32_t>(rng.below(16));
        std::memcpy(out + pos, &ra, 8);
        std::memcpy(out + pos + 8, &dec, 8);
        std::memcpy(out + pos + 16, &mag, 4);
        std::memcpy(out + pos + 20, &cat, 4);
        pos += 24;
    }
    return pos;
}

// --------------------------------------------------------------- Imaging

std::size_t
generateImaging(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // x-ray-like: 12-bit samples in 16-bit words with heavy sensor noise;
    // nearly incompressible (~0.98+).
    std::size_t pos = 0;
    std::uint32_t level = 2048;
    while (pos < size) {
        // Smooth base signal plus wide-band noise.
        level = (level * 15 + 1800 + static_cast<std::uint32_t>(rng.below(500))) / 16;
        const std::uint16_t sample = static_cast<std::uint16_t>(
            (level + rng.below(1024)) & 0x0fff);
        out[pos++] = static_cast<std::uint8_t>(sample & 0xff);
        out[pos++] = static_cast<std::uint8_t>(sample >> 8);
    }
    return pos;
}

/**
 * Write @p size bytes of profile @p p at @p out, which must hold
 * size + kSlack bytes; the bytes past @p size are scratch.
 */
void
fill(Profile p, std::uint8_t *out, std::size_t size, Rng &rng)
{
    const std::size_t written = [&] {
        switch (p) {
          case Profile::Text:
            return generateText(out, size, rng);
          case Profile::Xml:
            return generateXml(out, size, rng);
          case Profile::Database:
            return generateDatabase(out, size, rng);
          case Profile::Executable:
            return generateExecutable(out, size, rng);
          case Profile::Scientific:
            return generateScientific(out, size, rng);
          case Profile::Imaging:
            return generateImaging(out, size, rng);
        }
        panic("unknown corpus profile");
    }();
    SMARTDS_CHECK(written >= size && written <= size + kSlack,
                  "%s generator wrote %zu bytes for a %zu-byte share",
                  profileName(p), written, size);
}

} // namespace

const std::vector<Profile> &
allProfiles()
{
    static const std::vector<Profile> profiles = {
        Profile::Text,       Profile::Xml,        Profile::Database,
        Profile::Executable, Profile::Scientific, Profile::Imaging,
    };
    return profiles;
}

const char *
profileName(Profile p)
{
    switch (p) {
      case Profile::Text:
        return "text";
      case Profile::Xml:
        return "xml";
      case Profile::Database:
        return "database";
      case Profile::Executable:
        return "executable";
      case Profile::Scientific:
        return "scientific";
      case Profile::Imaging:
        return "imaging";
    }
    panic("unknown corpus profile");
}

std::vector<std::uint8_t>
generate(Profile p, std::size_t size, Rng &rng)
{
    std::vector<std::uint8_t> out(size + kSlack);
    fill(p, out.data(), size, rng);
    out.resize(size);
    return out;
}

SyntheticCorpus::SyntheticCorpus(std::size_t total_bytes, std::uint64_t seed)
    : seed_(seed)
{
    // Mixture approximating the Silesia composition by data kind.
    struct Part
    {
        Profile profile;
        double weight;
    };
    static const Part parts[] = {
        {Profile::Text, 0.34},     {Profile::Xml, 0.17},
        {Profile::Database, 0.16}, {Profile::Executable, 0.17},
        {Profile::Scientific, 0.08}, {Profile::Imaging, 0.08},
    };
    // Each part is written in place after the last; the bytes it writes
    // past its share land where the next part (or the slack) goes.
    Rng rng(seed);
    data_.resize(total_bytes + kSlack);
    std::size_t offset = 0;
    for (const auto &part : parts) {
        const auto n = static_cast<std::size_t>(
            part.weight * static_cast<double>(total_bytes));
        SMARTDS_CHECK(offset + n <= total_bytes, "corpus parts overflow");
        fill(part.profile, data_.data() + offset, n, rng);
        offset += n;
    }
    // Round up to the requested size with text.
    if (offset < total_bytes)
        fill(Profile::Text, data_.data() + offset, total_bytes - offset, rng);
    data_.resize(total_bytes);
}

const std::uint8_t *
SyntheticCorpus::sampleBlockPtr(std::size_t block_size, Rng &rng) const
{
    return blockPtr(block_size, sampleBlockIndex(block_size, rng));
}

std::size_t
SyntheticCorpus::sampleBlockIndex(std::size_t block_size, Rng &rng) const
{
    return rng.below(blockCount(block_size));
}

std::size_t
SyntheticCorpus::blockCount(std::size_t block_size) const
{
    SMARTDS_CHECK(block_size > 0 && block_size <= data_.size(),
                   "block size %zu vs corpus %zu", block_size, data_.size());
    return data_.size() / block_size;
}

const std::uint8_t *
SyntheticCorpus::blockPtr(std::size_t block_size, std::size_t index) const
{
    SMARTDS_CHECK(index < blockCount(block_size),
                   "block index %zu out of %zu", index,
                   blockCount(block_size));
    return data_.data() + index * block_size;
}

std::vector<std::uint8_t>
SyntheticCorpus::sampleBlock(std::size_t block_size, Rng &rng) const
{
    const std::uint8_t *p = sampleBlockPtr(block_size, rng);
    return std::vector<std::uint8_t>(p, p + block_size);
}

RatioSampler::RatioSampler(const SyntheticCorpus &corpus,
                           std::size_t block_size, int effort,
                           std::size_t samples, std::uint64_t seed)
{
    SMARTDS_CHECK(samples > 0, "need at least one sample");
    // Draw every block first, from the one stream, then compress them on
    // up to one thread per hardware thread, at most one per
    // kBlocksPerThread blocks. Each thread fills its own run of
    // index-ordered slots, and the sum runs in index order, so the ratios
    // and their mean do not depend on the thread count.
    constexpr std::size_t kBlocksPerThread = 64;
    Rng rng(seed);
    std::vector<std::size_t> blocks(samples);
    for (std::size_t &b : blocks)
        b = corpus.sampleBlockIndex(block_size, rng);
    ratios_.resize(samples);
    const std::size_t threads = std::clamp<std::size_t>(
        samples / kBlocksPerThread, 1,
        std::max(1u, std::thread::hardware_concurrency()));
    auto compress = [&](std::size_t t) {
        for (std::size_t i = samples * t / threads;
             i < samples * (t + 1) / threads; ++i) {
            ratios_[i] = lz4::compressionRatio(
                corpus.blockPtr(block_size, blocks[i]), block_size, effort);
        }
    };
    // std::async futures join their thread when destroyed and carry its
    // exception to get(), so no exit path leaves a thread running.
    std::vector<std::future<void>> workers;
    workers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t)
        workers.push_back(std::async(std::launch::async, compress, t));
    compress(0);
    for (std::future<void> &w : workers)
        w.get();
    double sum = 0.0;
    for (const double r : ratios_)
        sum += r;
    mean_ = sum / static_cast<double>(samples);
}

double
RatioSampler::sample(Rng &rng) const
{
    return ratios_[rng.below(ratios_.size())];
}

} // namespace smartds::corpus
