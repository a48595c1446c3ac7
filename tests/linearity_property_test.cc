// Algebraic property sweeps: the sketch group/monoid laws that distributed
// aggregation relies on (associativity, commutativity, identity, inverse),
// checked counter-exactly across parameterizations.
#include <gtest/gtest.h>

#include <vector>

#include "core/ams_f2.h"
#include "core/count_sketch.h"
#include "stream/zipf.h"
#include "verify/program.h"

namespace streamfreq {
namespace {

struct LawCase {
  size_t depth;
  size_t width;
  HashFamily family;
};

std::string CaseName(const ::testing::TestParamInfo<LawCase>& info) {
  const char* fam = info.param.family == HashFamily::kCarterWegman    ? "CW"
                    : info.param.family == HashFamily::kMultiplyShift ? "MS"
                                                                      : "TAB";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%zu_b%zu_%s", info.param.depth,
                info.param.width, fam);
  return buf;
}

class SketchLawTest : public ::testing::TestWithParam<LawCase> {
 protected:
  CountSketchParams Params() const {
    CountSketchParams p;
    p.depth = GetParam().depth;
    p.width = GetParam().width;
    p.seed = 404;
    p.family = GetParam().family;
    return p;
  }

  CountSketch SketchOf(const Stream& s) const {
    auto sketch = CountSketch::Make(Params());
    EXPECT_TRUE(sketch.ok());
    for (ItemId q : s) sketch->Add(q);
    return std::move(*sketch);
  }

  static void ExpectEqualCounters(const CountSketch& a, const CountSketch& b) {
    for (size_t row = 0; row < a.depth(); ++row) {
      for (size_t col = 0; col < a.width(); ++col) {
        ASSERT_EQ(a.CounterAt(row, col), b.CounterAt(row, col))
            << "row " << row << " col " << col;
      }
    }
  }
};

TEST_P(SketchLawTest, MergeIsAssociativeAndCommutative) {
  auto gen = ZipfGenerator::Make(500, 1.0, 3);
  ASSERT_TRUE(gen.ok());
  const Stream s1 = gen->Take(3000);
  const Stream s2 = gen->Take(3000);
  const Stream s3 = gen->Take(3000);

  // (1 + 2) + 3
  CountSketch left = SketchOf(s1);
  ASSERT_TRUE(left.Merge(SketchOf(s2)).ok());
  ASSERT_TRUE(left.Merge(SketchOf(s3)).ok());
  // 1 + (2 + 3)
  CountSketch right23 = SketchOf(s2);
  ASSERT_TRUE(right23.Merge(SketchOf(s3)).ok());
  CountSketch right = SketchOf(s1);
  ASSERT_TRUE(right.Merge(right23).ok());
  ExpectEqualCounters(left, right);

  // 3 + 2 + 1 (commutativity)
  CountSketch reversed = SketchOf(s3);
  ASSERT_TRUE(reversed.Merge(SketchOf(s2)).ok());
  ASSERT_TRUE(reversed.Merge(SketchOf(s1)).ok());
  ExpectEqualCounters(left, reversed);
}

TEST_P(SketchLawTest, EmptySketchIsIdentity) {
  auto gen = ZipfGenerator::Make(500, 1.0, 5);
  ASSERT_TRUE(gen.ok());
  const Stream s = gen->Take(3000);
  CountSketch loaded = SketchOf(s);
  auto empty = CountSketch::Make(Params());
  ASSERT_TRUE(empty.ok());
  CountSketch merged = SketchOf(s);
  ASSERT_TRUE(merged.Merge(*empty).ok());
  ExpectEqualCounters(loaded, merged);
}

TEST_P(SketchLawTest, SubtractIsInverseOfMerge) {
  auto gen = ZipfGenerator::Make(500, 1.0, 7);
  ASSERT_TRUE(gen.ok());
  const Stream s1 = gen->Take(3000);
  const Stream s2 = gen->Take(3000);
  CountSketch a = SketchOf(s1);
  ASSERT_TRUE(a.Merge(SketchOf(s2)).ok());
  ASSERT_TRUE(a.Subtract(SketchOf(s2)).ok());
  ExpectEqualCounters(a, SketchOf(s1));
}

// Metamorphic relation under the verify fuzz grammar: a round-robin split
// into three sketches folded back with Merge is counter-exact against one
// sequential sketch, on every fuzz workload family (zipf / uniform / flows
// / adversarial). Parallel ingest and the merge tree both rest on it.
TEST_P(SketchLawTest, RoundRobinSplitMergesToSequentialOnFuzzWorkloads) {
  for (uint64_t index = 0; index < 6; ++index) {
    const FuzzProgram program = ProgramFromSeed(777, index);
    auto stream = MaterializeStream(program);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    std::vector<Stream> parts(3);
    for (size_t i = 0; i < stream->size(); ++i) {
      parts[i % 3].push_back((*stream)[i]);
    }
    CountSketch combined = SketchOf(parts[0]);
    ASSERT_TRUE(combined.Merge(SketchOf(parts[1])).ok());
    ASSERT_TRUE(combined.Merge(SketchOf(parts[2])).ok());
    SCOPED_TRACE("program " + std::to_string(index) + " (" +
                 WorkloadKindName(program.kind) + ")");
    ExpectEqualCounters(combined, SketchOf(*stream));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SketchLawTest,
    ::testing::Values(LawCase{1, 64, HashFamily::kCarterWegman},
                      LawCase{5, 256, HashFamily::kCarterWegman},
                      LawCase{4, 128, HashFamily::kMultiplyShift},
                      LawCase{3, 512, HashFamily::kTabulation}),
    CaseName);

TEST(AmsLawTest, MergeIsAssociative) {
  AmsF2Params p;
  p.groups = 3;
  p.atoms_per_group = 4;
  p.seed = 9;
  auto make_loaded = [&](uint64_t salt) {
    auto s = AmsF2Sketch::Make(p);
    EXPECT_TRUE(s.ok());
    for (ItemId q = 1; q <= 200; ++q) s->Add(q * salt, 3);
    return std::move(*s);
  };
  AmsF2Sketch left = make_loaded(1);
  AmsF2Sketch mid = make_loaded(2);
  ASSERT_TRUE(left.Merge(mid).ok());
  ASSERT_TRUE(left.Merge(make_loaded(3)).ok());

  AmsF2Sketch right_tail = make_loaded(2);
  ASSERT_TRUE(right_tail.Merge(make_loaded(3)).ok());
  AmsF2Sketch right = make_loaded(1);
  ASSERT_TRUE(right.Merge(right_tail).ok());

  EXPECT_DOUBLE_EQ(left.Estimate(), right.Estimate());
}

}  // namespace
}  // namespace streamfreq
