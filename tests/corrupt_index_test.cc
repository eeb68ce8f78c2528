// Corrupt, truncated, stale and wrong-graph files must be rejected by
// the LoadMmap paths — never crash, never read out of bounds (the ASan
// CI job runs this file), and never come back as a structure that would
// serve wrong distances. The fixture family below corrupts each region
// of the shared layout (graph/index_io.h) in turn for the graph cache
// and all three persisted indexes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dynamic/update.h"
#include "index_kinds.h"
#include "test_util.h"

namespace fannr {
namespace {

using testing::AllIndexKinds;
using testing::IndexKind;
using testing::kFingerprintOffset;
using testing::kHeaderBytes;
using testing::kVersionOffset;
using testing::ReadFileBytes;
using testing::TempPath;
using testing::WriteFileBytes;

class CorruptIndexTest : public ::testing::Test {
 protected:
  // Saves `kind` for `graph`, applies `mutate` to the file's bytes and
  // reports whether the result still loads against `graph`.
  template <typename Mutate>
  bool LoadsAfter(const IndexKind& kind, const Mutate& mutate,
                  ArenaValidation validation = ArenaValidation::kHeaderOnly) {
    const std::string path = TempPath(kind.name);
    EXPECT_TRUE(kind.save(graph_, path)) << kind.name;
    std::string bytes = ReadFileBytes(path);
    mutate(bytes);
    WriteFileBytes(path, bytes);
    return kind.loads(graph_, path, validation);
  }

  Graph graph_ = testing::MakeRandomNetwork(200, 51);
};

TEST_F(CorruptIndexTest, IntactFileLoads) {
  for (const IndexKind& kind : AllIndexKinds()) {
    for (const ArenaValidation validation :
         {ArenaValidation::kHeaderOnly, ArenaValidation::kFull}) {
      EXPECT_TRUE(LoadsAfter(kind, [](std::string&) {}, validation))
          << kind.name;
    }
  }
}

TEST_F(CorruptIndexTest, BitFlippedMagicRejected) {
  for (const IndexKind& kind : AllIndexKinds()) {
    EXPECT_FALSE(LoadsAfter(kind, [](std::string& b) { b[0] ^= 0x01; }))
        << kind.name;
  }
}

TEST_F(CorruptIndexTest, StaleFormatVersionRejected) {
  // Version 1 is the pre-fingerprint stream format and 2 the fingerprinted
  // one: both put their version word (or, for v1, a size word) where this
  // format keeps its own, so a file left over from either is rejected
  // and rebuilt, never misread.
  for (const IndexKind& kind : AllIndexKinds()) {
    for (const uint32_t version : {1u, 2u}) {
      EXPECT_FALSE(LoadsAfter(kind, [version](std::string& b) {
        std::memcpy(b.data() + kVersionOffset, &version, sizeof(version));
      })) << kind.name << " version " << version;
    }
  }
}

TEST_F(CorruptIndexTest, TruncatedFileRejected) {
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name);
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    ASSERT_GT(clean.size(), kHeaderBytes) << kind.name;
    // Cut inside the header, just after it, and mid-body: every prefix
    // must be rejected.
    for (size_t keep : {size_t{0}, size_t{4}, kHeaderBytes - 1,
                        kHeaderBytes + 8, clean.size() / 3, clean.size() / 2,
                        clean.size() - 1}) {
      WriteFileBytes(path, clean.substr(0, keep));
      EXPECT_FALSE(kind.loads(graph_, path))
          << kind.name << " truncated to " << keep << " bytes";
    }
    // A short file that is not one of ours at all.
    WriteFileBytes(path, "dimacs? never heard of it");
    EXPECT_FALSE(kind.loads(graph_, path)) << kind.name << " garbage";
  }
}

TEST_F(CorruptIndexTest, FingerprintMismatchRejected) {
  // Both checks read only the 64-byte header, never the payload.
  Graph other = testing::MakeRandomNetwork(150, 52);
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name);
    ASSERT_TRUE(kind.save(graph_, path));
    // Against a structurally different graph.
    EXPECT_FALSE(kind.loads(other, path)) << kind.name;
    // A corrupted stored checksum fails against the right graph too.
    EXPECT_FALSE(LoadsAfter(kind, [](std::string& b) {
      b[kFingerprintOffset + 16] ^= 0xFF;
    })) << kind.name;
  }
}

TEST_F(CorruptIndexTest, FileFromPreUpdateGraphRejected) {
  // The dynamic-network case: a file saved before a weight update must
  // not load against the updated graph (same topology, new weights).
  for (const IndexKind& kind : AllIndexKinds()) {
    Graph g = testing::MakeRandomNetwork(200, 53);
    const std::string path = TempPath(kind.name);
    ASSERT_TRUE(kind.save(g, path));
    dynamic::UpdateBatch batch;
    batch.ScaleWeight(g, 0, g.Neighbors(0).front().to, 2.0);
    batch.Apply(g);
    EXPECT_FALSE(kind.loads(g, path)) << kind.name;
    // Restoring the weight restores the fingerprint; the file is
    // trustworthy again (weights match bit for bit).
    dynamic::UpdateBatch restore;
    restore.ScaleWeight(g, 0, g.Neighbors(0).front().to, 0.5);
    restore.Apply(g);
    EXPECT_TRUE(kind.loads(g, path)) << kind.name;
  }
}

TEST_F(CorruptIndexTest, NonMonotonicHubLabelOffsetsRejected) {
  // Section 0 of a hub-label file is the per-vertex offsets array; its
  // file offset is the first word of the section table. Blow up
  // offsets_[1] so the prefix array decreases at the next element:
  // Distance() would index entries_ out of bounds if LoadMmap accepted
  // this.
  const std::vector<IndexKind> kinds = AllIndexKinds();
  const IndexKind& labels = kinds[1];
  ASSERT_EQ(labels.name, "HubLabels");
  EXPECT_FALSE(LoadsAfter(labels, [](std::string& b) {
    uint64_t section0 = 0;
    std::memcpy(&section0, b.data() + kHeaderBytes, sizeof(section0));
    const size_t offset1 = section0 + sizeof(size_t);
    ASSERT_LT(offset1 + 8, b.size());
    for (size_t i = 0; i < 8; ++i) b[offset1 + i] = '\x7f';
  }));
}

TEST_F(CorruptIndexTest, SingleByteCorruptionNeverCrashes) {
  // Sweep a single-byte flip across each file. Most positions must be
  // rejected (header or structure damage); payload flips are invisible
  // to the O(header) open and may load. The contract here is "no crash,
  // no sanitizer finding" (the ASan CI job turns one into a hard
  // failure), so every survivor is queried too: its answers may be
  // wrong, its reads must stay in bounds.
  Rng rng(0xC0DEu);
  const VertexId n = static_cast<VertexId>(graph_.NumVertices());
  for (const IndexKind& kind : AllIndexKinds()) {
    const std::string path = TempPath(kind.name);
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    // Dense early (header and table), sparser in the body.
    for (size_t pos = 0; pos < clean.size(); pos += 1 + pos / 7) {
      std::string bytes = clean;
      bytes[pos] ^= 0x40;
      WriteFileBytes(path, bytes);
      const testing::DistanceOracle survivor =
          kind.open(graph_, path, ArenaValidation::kHeaderOnly);
      if (!survivor) continue;
      for (int i = 0; i < 4; ++i) {
        (void)survivor(static_cast<VertexId>(rng.NextBounded(n)),
                       static_cast<VertexId>(rng.NextBounded(n)));
      }
    }
  }
}

}  // namespace
}  // namespace fannr
