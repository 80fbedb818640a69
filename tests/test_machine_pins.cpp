// Exact pins of the block-machine compiler output. Each compiled
// program is reduced to one FNV-1a fingerprint over everything the
// downstream layers read: the physical ops with their operands, the
// slot map, the data cells, every recovery boundary, the routing spans
// and the cost counters — and, for checked programs, the rail-form
// circuit, its checkpoints and zero checks, the entry/exit cells and
// the checking stats. Five logical programs run on both layouts under
// every compiler switch (init, balanced routing; for checked programs
// also scheduling and rail granularity), so a refactor of the
// compiler, the scheduling pass or the rail transform that moves a
// single gate, operand or boundary anywhere fails here.
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

// Index = (two_d << 2) | (with_init << 1) | balanced.
constexpr std::uint64_t kPlainPins[5][8] = {
    {0xf3840b91e491cc12ull, 0xf3840b91e491cc12ull,
     0x8bd8919307e239f1ull, 0x8bd8919307e239f1ull,
     0xc5b60a5805ba528dull, 0xc5b60a5805ba528dull,
     0xdd06b73f801a9103ull, 0xdd06b73f801a9103ull},
    {0xa5027ea72bb40e93ull, 0xa5027ea72bb40e93ull,
     0x6770f135912b77f8ull, 0x6770f135912b77f8ull,
     0xdf8b7d93eeaa6887ull, 0xdf8b7d93eeaa6887ull,
     0x7699b18a8d1709c9ull, 0x7699b18a8d1709c9ull},
    {0xe0c75d8d9eb1ff11ull, 0xe0c75d8d9eb1ff11ull,
     0xec3d2fb27ad244a7ull, 0xec3d2fb27ad244a7ull,
     0xeda5e11ced892f01ull, 0xeda5e11ced892f01ull,
     0xc9a47efbbf38ed0dull, 0xc9a47efbbf38ed0dull},
    {0x81bab657150d2282ull, 0xbb49fe6dcc44b1a2ull,
     0xe8824a7c2cceef9cull, 0xf76828f780ec93d8ull,
     0xb0d2905ce9b9ded0ull, 0x1624a9b11848134bull,
     0x04f05fda89eb9c7cull, 0xf8b814d5a9bb5150ull},
    {0x159d739947477b66ull, 0x3fbdb4da2c88afc3ull,
     0x774badb06541d42dull, 0xcf8781173342f5daull,
     0xb83137e04406f4c0ull, 0xd1ffeeb33734ae7eull,
     0xe19bda2042782e82ull, 0x86f4db628dcbaca3ull},
};

// Index = (two_d << 3) | (with_init << 2) | (schedule << 1) | per_block.
constexpr std::uint64_t kCheckedPins[5][16] = {
    {0x932c727aacf95388ull, 0x5ce4e5709ab5b36eull,
     0x3b3b523b2384c039ull, 0x32e4bd54d9792b5full,
     0x7d47c0e4fed11197ull, 0xcd14d219cdcb41f1ull,
     0x8b9cac0df2abaea6ull, 0xbfa0ac77cf985a40ull,
     0x3f50f9cd78af9c96ull, 0x762fd9bb510af7d1ull,
     0x28b224c88130e06full, 0x99992bab4ee1cfe8ull,
     0x800c36775778941aull, 0xb70a2c2ec557cfddull,
     0x02ff300cdef1e0e3ull, 0x8abfa2d78ddbbce4ull},
    {0x7604ebd3effa4d7full, 0x26be93ce59bfe53full,
     0x658584302aa79951ull, 0x80acd0dbdc0eeb91ull,
     0xfe35fed9e33155dcull, 0xccefa42ccb2dda5cull,
     0xd9524e974d648df2ull, 0xcf0270344af8f672ull,
     0xecfb334b4361074eull, 0x0c6a1a6dee6aa7efull,
     0xd9ec3a83d3bec97dull, 0x68054483f5395edcull,
     0x2be1e120aac973f6ull, 0x528ed96c467cbd97ull,
     0x981d860295329305ull, 0x855f801afc884f64ull},
    {0x935165286f672e54ull, 0xd65768626162e756ull,
     0x935165286f672e54ull, 0xd65768626162e756ull,
     0x9147df4e7c91815eull, 0xb6ca19844a29069cull,
     0x9147df4e7c91815eull, 0xb6ca19844a29069cull,
     0xcfeecfafe28cbee5ull, 0x725bb0f63d98a09cull,
     0xcfeecfafe28cbee5ull, 0x725bb0f63d98a09cull,
     0x58772a7c952280f5ull, 0xa879a3f40f0f3fccull,
     0x58772a7c952280f5ull, 0xa879a3f40f0f3fccull},
    {0x31c784b66d09b529ull, 0xd63e6a545b5baa9aull,
     0x4a7cc11aa0c94091ull, 0xb3793893e76c8dddull,
     0x19c997a0611aba45ull, 0x0e7135bd3e96e299ull,
     0x7c3ff86eea7ce0c3ull, 0x8576a0ca4858d89eull,
     0x4be2d28c104ff240ull, 0x38d7f7bb4fb0df03ull,
     0x4c9ddf8d9ff102e0ull, 0x00f009c5d08e6fe8ull,
     0xca86a18d446aabfeull, 0xa1a1cce7afc1539eull,
     0x7c8c9697769379fdull, 0xe171b02da1755540ull},
    {0xf0659342d683fbbeull, 0x72a64821c448237cull,
     0x0e4dda106bb6366dull, 0x74be09a489b42bc7ull,
     0x16b1aab465e902d1ull, 0x6c47c1ca5b3fa61bull,
     0x6e94aa8e7a645f23ull, 0xef1575e4e53befbdull,
     0x12e2445d546d64c5ull, 0x0f151fefba6fc40full,
     0x9550bf0ee15c9d3eull, 0x7c35312fcda49b19ull,
     0xc52d4e4ea74e47c7ull, 0x79400be82223a9ccull,
     0x23e4dee7a61519e4ull, 0x9b9d3082753e7eb6ull},
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(MachinePins, CompiledProgramsBitExact) {
  const auto programs = pinned_programs();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Circuit& logical = programs[p];
    for (unsigned index = 0; index < 8; ++index) {
      const bool two_d = (index >> 2) & 1u, with_init = (index >> 1) & 1u,
                 balanced = index & 1u;
      const std::uint64_t got =
          two_d ? fingerprint(Machine2d(logical.width(), with_init, balanced)
                                  .compile(logical))
                : fingerprint(Machine1d(logical.width(), with_init, balanced)
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
    for (unsigned index = 0; index < 16; ++index) {
      const bool two_d = (index >> 3) & 1u, with_init = (index >> 2) & 1u;
      CheckedMachineOptions opts;
      opts.schedule.enabled = (index >> 1) & 1u;
      opts.rails = (index & 1u) ? RailGranularity::kPerBlock
                                : RailGranularity::kGlobal;
      const std::uint64_t got =
          two_d ? fingerprint(CheckedMachine2d(logical.width(), with_init, opts)
                                  .compile(logical))
                : fingerprint(CheckedMachine1d(logical.width(), with_init, opts)
                                  .compile(logical));
      EXPECT_EQ(got, kCheckedPins[p][index])
          << "program " << p << " index " << index << " got " << hex(got);
    }
  }
}

}  // namespace
}  // namespace revft
