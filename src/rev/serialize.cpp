#include "rev/serialize.h"

#include <cstdint>
#include <sstream>

#include "support/error.h"

namespace revft {

std::string circuit_to_text(const Circuit& circuit) {
  std::ostringstream os;
  os << "revft-circuit v1\n";
  os << "width " << circuit.width() << "\n";
  for (const Gate& g : circuit.ops()) {
    os << gate_name(g.kind);
    const int n = g.arity();
    for (int i = 0; i < n; ++i) os << ' ' << g.bits[static_cast<std::size_t>(i)];
    os << '\n';
  }
  return os.str();
}

Circuit circuit_from_text(const std::string& text) {
  // Widths and operands are 32-bit; larger values must not wrap.
  constexpr std::int64_t kMaxIndex = UINT32_MAX;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) -> void {
    throw Error("circuit_from_text: line " + std::to_string(line_no) + ": " + why);
  };

  // Header.
  if (!std::getline(is, line)) fail("empty input");
  ++line_no;
  if (line != "revft-circuit v1") fail("bad header '" + line + "'");

  bool have_width = false;
  Circuit circuit;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments.
    if (auto pos = line.find('#'); pos != std::string::npos) line.resize(pos);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank
    if (word == "width") {
      if (have_width) fail("duplicate width");
      std::int64_t w = -1;
      if (!(ls >> w) || w < 0) fail("bad width");
      if (w > kMaxIndex)
        fail("width " + std::to_string(w) + " exceeds 2^32-1");
      circuit = Circuit(static_cast<std::uint32_t>(w));
      have_width = true;
      continue;
    }
    if (!have_width) fail("gate before width");
    GateKind kind;
    try {
      kind = gate_from_name(word);
    } catch (const Error&) {
      fail("unknown gate '" + word + "'");
      return circuit;  // unreachable; silences no-return warnings
    }
    Gate g{kind, {0, 0, 0}};
    const int arity = gate_arity(kind);
    for (int i = 0; i < arity; ++i) {
      std::int64_t b = -1;
      if (!(ls >> b) || b < 0) fail("missing operand for " + word);
      if (b > kMaxIndex)
        fail("operand " + std::to_string(b) + " of " + word +
             " exceeds 2^32-1");
      g.bits[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(b);
    }
    std::string extra;
    if (ls >> extra) fail("trailing token '" + extra + "'");
    try {
      circuit.push(g);
    } catch (const Error& e) {
      fail(e.what());
    }
  }
  if (!have_width) fail("missing width line");
  return circuit;
}

}  // namespace revft
