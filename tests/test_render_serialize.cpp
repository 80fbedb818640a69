// Tests for the ASCII renderer and the text serialization format.
#include <gtest/gtest.h>

#include <string>

#include "rev/render.h"
#include "rev/serialize.h"
#include "rev/simulator.h"
#include "support/error.h"

namespace revft {
namespace {

TEST(Render, Fig1Symbols) {
  Circuit c(3);
  c.cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0);
  const std::string art = render_ascii(c);
  // Three wire rows labelled q0..q2, two connector rows.
  EXPECT_NE(art.find("q0: "), std::string::npos);
  EXPECT_NE(art.find("q2: "), std::string::npos);
  // Controls and targets present.
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find('+'), std::string::npos);
}

TEST(Render, ColumnsPerOp) {
  Circuit c(2);
  c.cnot(0, 1).cnot(1, 0).swap(0, 1);
  const std::string art = render_ascii(c);
  // q0 wire line: label + 3 columns of 3 chars.
  const auto line_end = art.find('\n');
  EXPECT_EQ(art.substr(0, line_end).size(), std::string("q0: ").size() + 9);
}

TEST(Render, CustomLabels) {
  Circuit c(2);
  c.cnot(0, 1);
  RenderOptions opts;
  opts.labels = {"carry", "sum"};
  const std::string art = render_ascii(c, opts);
  EXPECT_NE(art.find("carry: "), std::string::npos);
  EXPECT_NE(art.find("sum"), std::string::npos);
}

TEST(Render, LabelCountValidated) {
  Circuit c(2);
  RenderOptions opts;
  opts.labels = {"only-one"};
  EXPECT_THROW(render_ascii(c, opts), Error);
}

TEST(Render, CompactModePacksDisjointGates) {
  Circuit c(4);
  c.cnot(0, 1).cnot(2, 3);  // disjoint: can share a column
  RenderOptions compact;
  compact.compact = true;
  const std::string art_compact = render_ascii(c, compact);
  const std::string art_full = render_ascii(c);
  const auto width_of = [](const std::string& s) { return s.find('\n'); };
  EXPECT_LT(width_of(art_compact), width_of(art_full));
}

TEST(Render, MajUsesLetterSymbols) {
  Circuit c(3);
  c.maj(0, 1, 2).majinv(0, 1, 2).init3(0, 1, 2);
  const std::string art = render_ascii(c);
  EXPECT_NE(art.find('M'), std::string::npos);
  EXPECT_NE(art.find('W'), std::string::npos);
  EXPECT_NE(art.find('0'), std::string::npos);
}

TEST(Render, F2gLooksLikeDoubleFeynman) {
  // Control '*' on the first operand, '+' targets on the other two.
  Circuit c(3);
  c.f2g(1, 0, 2);
  const std::string art = render_ascii(c);
  const auto line_of = [&](const std::string& label) {
    const auto start = art.find(label);
    return art.substr(start, art.find('\n', start) - start);
  };
  EXPECT_NE(line_of("q1: ").find('*'), std::string::npos);
  EXPECT_NE(line_of("q0: ").find('+'), std::string::npos);
  EXPECT_NE(line_of("q2: ").find('+'), std::string::npos);
}

TEST(Render, NftUsesTildeRails) {
  Circuit c(3);
  c.nft(0, 1, 2);
  const std::string art = render_ascii(c);
  const auto line_of = [&](const std::string& label) {
    const auto start = art.find(label);
    return art.substr(start, art.find('\n', start) - start);
  };
  EXPECT_NE(line_of("q0: ").find('*'), std::string::npos);
  EXPECT_NE(line_of("q1: ").find('~'), std::string::npos);
  EXPECT_NE(line_of("q2: ").find('~'), std::string::npos);
}

TEST(Serialize, RoundTripPreservesCircuit) {
  Circuit c(9);
  c.init3(3, 4, 5).majinv(0, 3, 6).maj(0, 1, 2).swap3(2, 3, 4).cnot(7, 8)
      .not_(0).fredkin(1, 2, 3).toffoli(4, 5, 6).swap(7, 8)
      .f2g(0, 4, 8).nft(6, 3, 1);
  const Circuit back = circuit_from_text(circuit_to_text(c));
  EXPECT_EQ(back, c);
}

TEST(Serialize, NewKindMnemonicsAreStable) {
  Circuit c(3);
  c.f2g(0, 1, 2).nft(2, 1, 0);
  const std::string text = circuit_to_text(c);
  EXPECT_NE(text.find("f2g 0 1 2\n"), std::string::npos);
  EXPECT_NE(text.find("nft 2 1 0\n"), std::string::npos);
  const Circuit parsed = circuit_from_text(
      "revft-circuit v1\n"
      "width 4\n"
      "f2g 3 0 1   # parity-preserving double Feynman\n"
      "nft 1 2 3\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.op(0).kind, GateKind::kF2g);
  EXPECT_EQ(parsed.op(1).kind, GateKind::kNft);
}

TEST(Serialize, TextFormatShape) {
  Circuit c(3);
  c.maj(0, 1, 2);
  const std::string text = circuit_to_text(c);
  EXPECT_NE(text.find("revft-circuit v1\n"), std::string::npos);
  EXPECT_NE(text.find("width 3\n"), std::string::npos);
  EXPECT_NE(text.find("maj 0 1 2\n"), std::string::npos);
}

TEST(Serialize, ParsesCommentsAndBlanks) {
  const Circuit c = circuit_from_text(
      "revft-circuit v1\n"
      "width 3   # three bits\n"
      "\n"
      "# the recovery encoder\n"
      "majinv 0 1 2\n");
  EXPECT_EQ(c.width(), 3u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.op(0).kind, GateKind::kMajInv);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(circuit_from_text(""), Error);
  EXPECT_THROW(circuit_from_text("not-a-header\n"), Error);
  EXPECT_THROW(circuit_from_text("revft-circuit v1\nmaj 0 1 2\n"), Error)
      << "gate before width";
  EXPECT_THROW(circuit_from_text("revft-circuit v1\nwidth 3\nwidth 3\n"), Error)
      << "duplicate width";
  EXPECT_THROW(circuit_from_text("revft-circuit v1\nwidth 3\nmaj 0 1\n"), Error)
      << "missing operand";
  EXPECT_THROW(circuit_from_text("revft-circuit v1\nwidth 3\nmaj 0 1 2 3\n"),
               Error)
      << "trailing operand";
  EXPECT_THROW(circuit_from_text("revft-circuit v1\nwidth 3\nnand 0 1 2\n"),
               Error)
      << "unknown gate";
  EXPECT_THROW(circuit_from_text("revft-circuit v1\nwidth 3\nmaj 0 1 7\n"),
               Error)
      << "operand out of range";
}

// Widths and operands are 32-bit: a larger value is rejected with its
// line number, never wrapped (width 2^32+2 must not read as 2, nor
// operand 2^32 as 0).
TEST(Serialize, RejectsIndicesAbove32Bits) {
  const auto expect_error_at = [](const std::string& text,
                                  const std::string& line) {
    try {
      circuit_from_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  };
  expect_error_at("revft-circuit v1\nwidth 4294967298\nnot 4294967297\n",
                  "line 2");
  expect_error_at("revft-circuit v1\nwidth 4\nnot 4294967296\n", "line 3");
  expect_error_at("revft-circuit v1\nwidth 4\ncnot 0 4294967297\n",
                  "line 3");
  EXPECT_EQ(circuit_from_text("revft-circuit v1\nwidth 4294967295\n").width(),
            4294967295u);
}

TEST(Serialize, RoundTripIsFunctionallyIdentical) {
  Circuit c(6);
  c.maj(0, 1, 2).toffoli(3, 4, 5).swap3(1, 2, 3).cnot(0, 5);
  const Circuit back = circuit_from_text(circuit_to_text(c));
  EXPECT_TRUE(functionally_equal(c, back));
}

}  // namespace
}  // namespace revft
