// Seeded mutation fuzzing of the two parsers that read untrusted text:
// support/json's strict parser and rev/serialize's circuit format.
// Valid seed documents are mutated with bit flips, byte inserts and
// deletes and extended digit runs, driven by a fixed Xoshiro256 seed
// so every failure replays. The contract checked on every mutant:
//
//   * json::parse returns ok or !ok — it never crashes, and an accepted
//     document round-trips: dump(parse(dump(v))) == dump(v);
//   * circuit_from_text either succeeds or throws revft::Error (nothing
//     else may escape), and an accepted circuit round-trips through
//     circuit_to_text unchanged.
//
// The sanitizer CI job runs this suite under ASan + UBSan, which is
// what turns "never crashes" into out-of-bounds and overflow checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "rev/circuit.h"
#include "rev/serialize.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"

namespace revft {
namespace {

constexpr std::uint64_t kSeed = 0xf022c0de5eedULL;
constexpr int kCasesPerParser = 20000;

/// Printable form of a mutant for failure messages (control bytes and
/// non-ASCII escaped).
std::string show(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20 || c >= 0x7f) {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[c >> 4];
      out += hex[c & 15];
    } else {
      out += ch;
    }
  }
  return out;
}

/// Bytes worth inserting: structural characters of both formats,
/// digits, signs and a few raw bytes.
constexpr char kInterestingBytes[] =
    "{}[]\",:\\/-+.eE0123456789 \n\t#u\x00\x7f\xff";
const std::string kInteresting(kInterestingBytes,
                               sizeof(kInterestingBytes) - 1);

/// One random mutation of `doc` in place.
void mutate_once(std::string& doc, Xoshiro256& rng) {
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  const auto at = [&](std::size_t i) {
    return doc.begin() + static_cast<std::ptrdiff_t>(i);
  };
  switch (rng.next_below(5)) {
    case 0:  // bit flip
      if (!doc.empty())
        doc[pick(doc.size())] ^= static_cast<char>(1u << rng.next_below(8));
      break;
    case 1:  // insert an interesting byte
      doc.insert(at(pick(doc.size() + 1)),
                 kInteresting[pick(kInteresting.size())]);
      break;
    case 2:  // insert a random byte
      doc.insert(at(pick(doc.size() + 1)),
                 static_cast<char>(rng.next_below(256)));
      break;
    case 3:  // delete a byte
      if (!doc.empty())
        doc.erase(at(pick(doc.size())));
      break;
    default: {  // extend a digit run: numbers past every integer width
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < doc.size(); ++i)
        if (doc[i] >= '0' && doc[i] <= '9') digits.push_back(i);
      const std::size_t pos =
          digits.empty() ? pick(doc.size() + 1) : digits[pick(digits.size())];
      std::string run(1 + pick(24), '0');
      for (char& c : run) c = static_cast<char>('0' + rng.next_below(10));
      doc.insert(pos, run);
      break;
    }
  }
}

/// A mutant of a random seed document: 1-4 stacked mutations.
std::string mutant(const std::vector<std::string>& seeds, Xoshiro256& rng) {
  std::string doc = seeds[static_cast<std::size_t>(
      rng.next_below(seeds.size()))];
  const int n = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n; ++i) mutate_once(doc, rng);
  return doc;
}

// escape() writes control characters as \u00XX, so a string holding
// '\b' survives a dump/parse cycle only if the parser decodes \u
// escapes (to UTF-8, surrogate pairs included) instead of keeping the
// six characters — a round-trip failure the fuzz suite below found.
TEST(JsonEscapes, UnicodeEscapesDecodeToUtf8) {
  const auto str = [](const std::string& doc) {
    const json::ParseResult r = json::parse(doc);
    EXPECT_TRUE(r.ok) << doc << ": " << r.error;
    return r.ok ? r.value.as_string() : std::string();
  };
  EXPECT_EQ(str(R"("\u0041")"), "A");
  EXPECT_EQ(str(R"("\u00e9\u00E9")"), "\xc3\xa9\xc3\xa9");
  EXPECT_EQ(str(R"("\u20ac")"), "\xe2\x82\xac");
  EXPECT_EQ(str(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(str(R"("\u0008")"), "\b");
  const json::Value v(std::string("\b\x01"));
  EXPECT_EQ(json::parse(v.dump()).value.as_string(), v.as_string());
  for (const char* bad : {R"("\ud83d")", R"("\ude00")", R"("\ud83d\u0041")",
                          R"("\u12")", R"("\u12g4")"})
    EXPECT_FALSE(json::parse(bad).ok) << bad;
}

TEST(FuzzJson, MutantsParseOrFailCleanlyAndRoundTrip) {
  const std::vector<std::string> seeds = {
      R"({"a": 1, "b": [true, false, null], "c": {"d": "e"}})",
      R"([0, -1, 18446744073709551615, -9223372036854775808, 1.5e-300])",
      R"({"s": "esc \" \\ \/ \b \f \n \r \t é 😀"})",
      R"({"nested": [[[[{"x": [1, 2.0, 3e10]}]]]], "empty": {}, "e": []})",
      R"("just a string")",
      R"(123456789012345678901234567890)",
      "  {\"ws\" :\t[ 1 ,\n2 ] }  ",
  };
  for (const std::string& s : seeds) ASSERT_TRUE(json::parse(s).ok) << s;

  Xoshiro256 rng(kSeed);
  int accepted = 0;
  for (int i = 0; i < kCasesPerParser; ++i) {
    const std::string doc = mutant(seeds, rng);
    const json::ParseResult r = json::parse(doc);
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty()) << show(doc);
      continue;
    }
    ++accepted;
    const std::string dumped = r.value.dump();
    const json::ParseResult again = json::parse(dumped);
    ASSERT_TRUE(again.ok) << show(doc) << " dumped as " << show(dumped) << ": "
                          << again.error;
    ASSERT_EQ(again.value.dump(), dumped) << show(doc);
  }
  // Non-vacuous both ways: some mutants survive, most do not.
  EXPECT_GT(accepted, kCasesPerParser / 100);
  EXPECT_LT(accepted, kCasesPerParser);
}

TEST(FuzzCircuitText, MutantsParseOrThrowErrorAndRoundTrip) {
  Circuit a(9);
  a.maj(0, 3, 6).majinv(0, 3, 6).init3(3, 4, 5).toffoli(6, 7, 8);
  Circuit b(4);
  b.not_(0).cnot(1, 2).swap3(0, 1, 3).cnot(3, 0);
  const std::vector<std::string> seeds = {
      circuit_to_text(a),
      circuit_to_text(b),
      "revft-circuit v1\n# comment\n\nwidth 12\nmaj 9 10 11  # trailing\n",
      "revft-circuit v1\nwidth 4294967295\nnot 4294967294\n",
  };
  for (const std::string& s : seeds) ASSERT_NO_THROW(circuit_from_text(s)) << s;

  Xoshiro256 rng(kSeed);
  int accepted = 0;
  for (int i = 0; i < kCasesPerParser; ++i) {
    const std::string doc = mutant(seeds, rng);
    try {
      const Circuit c = circuit_from_text(doc);
      ++accepted;
      const std::string text = circuit_to_text(c);
      const Circuit back = circuit_from_text(text);
      ASSERT_EQ(back, c) << show(doc);
      ASSERT_EQ(circuit_to_text(back), text) << show(doc);
    } catch (const Error&) {
      // Malformed input: the documented outcome.
    } catch (const std::exception& e) {
      FAIL() << "non-revft exception '" << e.what() << "' on " << show(doc);
    } catch (...) {
      FAIL() << "non-exception throw on " << show(doc);
    }
  }
  EXPECT_GT(accepted, kCasesPerParser / 100);
  EXPECT_LT(accepted, kCasesPerParser);
}

}  // namespace
}  // namespace revft
