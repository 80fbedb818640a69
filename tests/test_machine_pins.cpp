// Exact pins of the block-machine compiler output. Each compiled
// program is reduced to one FNV-1a fingerprint over everything the
// downstream layers read: the physical ops with their operands, the
// slot map, the data cells, every recovery boundary, the routing spans
// and the cost counters — and, for checked programs, the rail-form
// circuit, its checkpoints and zero checks, the entry/exit cells and
// the checking stats. Five logical programs run on both layouts with
// and without initialization (checked programs also under both rail
// granularities), so a refactor of the compiler, the scheduling pass
// or the rail transform that moves a single gate, operand or boundary
// anywhere fails here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "local/checked_machine.h"

namespace revft {
namespace {

/// 64-bit FNV-1a over little-endian 8-byte words.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename Range>
  void add_all(const Range& values) {
    add(std::size(values));
    for (const auto v : values) add(static_cast<std::uint64_t>(v));
  }
  void add(const Circuit& circuit) {
    add(circuit.width());
    add(circuit.size());
    for (const Gate& g : circuit.ops()) {
      add(static_cast<std::uint64_t>(g.kind));
      for (int k = 0; k < g.arity(); ++k)
        add(g.bits[static_cast<std::size_t>(k)]);
    }
  }
  void add(const std::vector<std::array<std::uint32_t, 3>>& cells) {
    add(cells.size());
    for (const auto& cw : cells) add_all(cw);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const MachineProgram& p) {
  Fnv1a h;
  h.add(p.physical);
  h.add_all(p.slot_of_logical);
  h.add(p.data_cells);
  h.add(p.recovery_boundaries.size());
  for (const RecoveryBoundary& b : p.recovery_boundaries) {
    h.add(b.op_index);
    h.add(b.first_op);
    h.add(b.rail_checkpoint ? 1 : 0);
    h.add_all(b.clean_cells);
  }
  h.add(p.routing_spans.size());
  for (const auto& [first, last] : p.routing_spans) {
    h.add(first);
    h.add(last);
  }
  h.add(p.block_transpositions);
  h.add(p.routing_cell_swaps);
  h.add(p.gate_cycles);
  h.add(p.recovery_stages);
  return h.value();
}

std::uint64_t fingerprint(const CheckedMachineProgram& p) {
  Fnv1a h;
  h.add(p.checked.circuit);
  h.add(p.checked.data_width);
  h.add_all(p.checked.checkpoints);
  h.add(p.checked.zero_checks.size());
  for (const detect::ZeroCheck& z : p.checked.zero_checks) {
    h.add(z.op_index);
    h.add_all(z.bits);
  }
  h.add(p.logical_bits);
  h.add_all(p.slot_of_logical);
  h.add(p.input_cells);
  h.add(p.output_cells);
  const CheckingStats& s = p.stats;
  for (const std::uint64_t v :
       {s.total_ops, s.free_ops, s.compensated_ops, s.routing_ops,
        s.rail_ops, s.rails, s.checkpoints, s.zero_checks})
    h.add(v);
  h.add(p.block_transpositions);
  h.add(p.routing_cell_swaps);
  h.add(p.gate_cycles);
  h.add(p.recovery_stages);
  return h.value();
}

/// The five pinned logical programs.
std::vector<Circuit> pinned_programs() {
  std::vector<Circuit> out;
  out.emplace_back(3);
  out.back().toffoli(0, 1, 2);  // adjacent operands
  out.emplace_back(3);
  out.back().toffoli(2, 1, 0);  // reversed: routes
  out.emplace_back(3);
  out.back().not_(1).init3(0, 1, 2).not_(0);
  out.emplace_back(5);  // examples/checked_machine's program
  out.back().maj(4, 2, 0).toffoli(0, 3, 4).majinv(2, 1, 4).swap3(0, 2, 4);
  out.emplace_back(10);  // scattered mix with NOT and init
  out.back()
      .maj(9, 4, 0)
      .not_(7)
      .toffoli(0, 7, 9)
      .init3(2, 5, 8)
      .majinv(4, 1, 8)
      .not_(3)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return out;
}

// Index = (two_d << 1) | with_init.
constexpr std::uint64_t kPlainPins[5][4] = {
    {0xd0156ae1750b1f5bull, 0x58e15847162b4238ull,
     0x8e02ec00cc8f2c20ull, 0xb57d5d13b40a0eaeull},
    {0x94bd1b5933977bfaull, 0x089054628e2d1211ull,
     0x3be23532aaa14beaull, 0xc8aebfc72c0c72a4ull},
    {0x993af39bab09f070ull, 0xa4b0c5c0872a3606ull,
     0xa1272fb8ec01c520ull, 0x7d25cd97bdb1832cull},
    {0xbb8a08ea9c7d6400ull, 0x261b44dfe48a8fc2ull,
     0x02746d47a6e5b3cdull, 0x3995098b95208f76ull},
    {0x1a7c1c77d1d7b2f1ull, 0xfbd5f6056be6c9b4ull,
     0x3c9f3bcd6e0be2bcull, 0x36cc0d767e59212dull},
};

// Index = (two_d << 2) | (with_init << 1) | per_block.
constexpr std::uint64_t kCheckedPins[5][8] = {
    {0x3b3b523b2384c039ull, 0x32e4bd54d9792b5full,
     0x8b9cac0df2abaea6ull, 0xbfa0ac77cf985a40ull,
     0x28b224c88130e06full, 0x99992bab4ee1cfe8ull,
     0x02ff300cdef1e0e3ull, 0x8abfa2d78ddbbce4ull},
    {0x658584302aa79951ull, 0x80acd0dbdc0eeb91ull,
     0xd9524e974d648df2ull, 0xcf0270344af8f672ull,
     0xd9ec3a83d3bec97dull, 0x68054483f5395edcull,
     0x981d860295329305ull, 0x855f801afc884f64ull},
    {0x935165286f672e54ull, 0xd65768626162e756ull,
     0x9147df4e7c91815eull, 0xb6ca19844a29069cull,
     0xcfeecfafe28cbee5ull, 0x725bb0f63d98a09cull,
     0x58772a7c952280f5ull, 0xa879a3f40f0f3fccull},
    {0x4a7cc11aa0c94091ull, 0xb3793893e76c8dddull,
     0x7c3ff86eea7ce0c3ull, 0x8576a0ca4858d89eull,
     0x4c9ddf8d9ff102e0ull, 0x00f009c5d08e6fe8ull,
     0x7c8c9697769379fdull, 0xe171b02da1755540ull},
    {0x0e4dda106bb6366dull, 0x74be09a489b42bc7ull,
     0x6e94aa8e7a645f23ull, 0xef1575e4e53befbdull,
     0x9550bf0ee15c9d3eull, 0x7c35312fcda49b19ull,
     0x23e4dee7a61519e4ull, 0x9b9d3082753e7eb6ull},
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

BlockLayout layout_of(bool two_d) {
  return two_d ? BlockLayout::k2d : BlockLayout::k1d;
}

TEST(MachinePins, CompiledProgramsBitExact) {
  const auto programs = pinned_programs();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Circuit& logical = programs[p];
    for (unsigned index = 0; index < 4; ++index) {
      const bool two_d = (index >> 1) & 1u, with_init = index & 1u;
      const std::uint64_t got = fingerprint(
          Machine(layout_of(two_d), logical.width(), with_init)
              .compile(logical));
      EXPECT_EQ(got, kPlainPins[p][index])
          << "program " << p << " index " << index << " got " << hex(got);
    }
  }
}

TEST(MachinePins, CheckedProgramsBitExact) {
  const auto programs = pinned_programs();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Circuit& logical = programs[p];
    for (unsigned index = 0; index < 8; ++index) {
      const bool two_d = (index >> 2) & 1u, with_init = (index >> 1) & 1u;
      CheckedMachineOptions opts;
      opts.rails = (index & 1u) ? RailGranularity::kPerBlock
                                : RailGranularity::kGlobal;
      const std::uint64_t got = fingerprint(
          CheckedMachine(layout_of(two_d), logical.width(), with_init, opts)
              .compile(logical));
      EXPECT_EQ(got, kCheckedPins[p][index])
          << "program " << p << " index " << index << " got " << hex(got);
    }
  }
}

// One layout: the checked program wraps exactly the unchecked one.
// Every original op of the rail form, read through source_position, is
// the unchecked program's op at the same index, and the checking stats
// count exactly those ops — so a fault named at an unchecked op index
// lands on the same gate in the checked program.
TEST(MachinePins, CheckedProgramWrapsTheUncheckedProgram) {
  const auto programs = pinned_programs();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Circuit& logical = programs[p];
    for (unsigned index = 0; index < 8; ++index) {
      const bool two_d = (index >> 2) & 1u, with_init = (index >> 1) & 1u;
      CheckedMachineOptions opts;
      opts.rails = (index & 1u) ? RailGranularity::kPerBlock
                                : RailGranularity::kGlobal;
      const Circuit physical =
          Machine(layout_of(two_d), logical.width(), with_init)
              .compile(logical)
              .physical;
      const CheckedMachineProgram checked =
          CheckedMachine(layout_of(two_d), logical.width(), with_init, opts)
              .compile(logical);
      EXPECT_EQ(checked.stats.total_ops, physical.size())
          << "program " << p << " index " << index;
      ASSERT_EQ(checked.checked.source_position.size(), physical.size())
          << "program " << p << " index " << index;
      for (std::size_t i = 0; i < physical.size(); ++i)
        ASSERT_EQ(checked.checked.circuit.op(checked.checked.source_position[i]),
                  physical.op(i))
            << "program " << p << " index " << index << " op " << i;
    }
  }
}

}  // namespace
}  // namespace revft
