// Hostile input to the graph-text parser: seeded mutations of a real graph
// file (tests/golden/pole_s004.graph) and of the ingest payloads built from
// it: flipped bytes, truncations, and inserted whitespace, '\\', '|', ';',
// '=', '-' and digit runs. Every case must load or fail with a named cause;
// none may throw or crash (the sanitizer build runs this suite too).

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "pg/batch.h"
#include "pg/graph.h"
#include "pg/graph_io.h"
#include "service/assembler.h"
#include "service/client.h"
#include "util/rng.h"
#include "util/status.h"

namespace pghive::service {
namespace {

constexpr int kCases = 600;

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(PGHIVE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Applies one to three seeded mutations to `text` at or after byte `from`.
// A digit insertion inserts a run of up to 24 digits, enough to push a
// numeric literal or an id past 64 bits.
std::string Mutate(std::string text, size_t from, util::Rng* rng) {
  static constexpr char kInserts[] = " \t\\|;=-\n";
  const size_t mutations = 1 + rng->NextBounded(3);
  for (size_t m = 0; m < mutations && text.size() > from; ++m) {
    const size_t pos = from + rng->NextBounded(text.size() - from);
    const auto at = text.begin() + static_cast<std::ptrdiff_t>(pos);
    switch (rng->NextBounded(4)) {
      case 0:  // Flip the byte to any other value.
        text[pos] = static_cast<char>(text[pos] ^ (1 + rng->NextBounded(255)));
        break;
      case 1:  // Truncate.
        text.resize(pos);
        break;
      case 2:
        text.insert(at, kInserts[rng->NextBounded(sizeof(kInserts) - 1)]);
        break;
      default: {
        std::string digits(1 + rng->NextBounded(24), '0');
        for (char& c : digits) {
          c = static_cast<char>('0' + rng->NextBounded(10));
        }
        text.insert(pos, digits);
      }
    }
  }
  return text;
}

TEST(HostileInputTest, MutatedGraphTextLoadsOrNamesTheLine) {
  const std::string original = ReadGolden("pole_s004.graph");
  ASSERT_FALSE(original.empty());
  util::Rng rng(0x6A7E);
  size_t rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string text = Mutate(original, /*from=*/0, &rng);
    util::Status status;
    ASSERT_NO_THROW(status = pg::LoadGraphText(text).status()) << "case " << i;
    if (status.ok()) continue;
    ++rejected;
    EXPECT_EQ(status.code(), util::StatusCode::kParseError)
        << "case " << i << ": " << status.ToString();
    EXPECT_NE(status.message().find(", line "), std::string::npos)
        << "case " << i << ": " << status.ToString();
  }
  // The sweep must reach the error paths, not only benign edits.
  EXPECT_GT(rejected, static_cast<size_t>(kCases) / 10);
}

TEST(HostileInputTest, MutatedIngestPayloadsApplyOrFailWithACause) {
  auto graph = pg::LoadGraphText(ReadGolden("pole_s004.graph"));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::vector<std::string> payloads =
      BuildIngestPayloads(*graph, /*num_batches=*/4, /*seed=*/1);
  util::Rng rng(0xA55E);
  size_t rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::string> mutated = payloads;
    const size_t which = rng.NextBounded(mutated.size());
    // The G header that opens the first payload pre-sizes the graph and has
    // its own parser; the sweep leaves it intact so no case allocates a
    // huge placeholder graph.
    const size_t from = which == 0 ? mutated[0].find('\n') + 1 : 0;
    mutated[which] = Mutate(mutated[which], from, &rng);
    pg::PropertyGraph rebuilt;
    GraphAssembler assembler(&rebuilt);
    util::Status status;
    for (const std::string& payload : mutated) {
      pg::GraphBatch batch;
      ASSERT_NO_THROW(status = assembler.ApplyPayload(payload, &batch))
          << "case " << i;
      if (!status.ok()) break;
    }
    if (status.ok()) continue;
    ++rejected;
    const util::StatusCode code = status.code();
    EXPECT_TRUE(code == util::StatusCode::kParseError ||
                code == util::StatusCode::kOutOfRange ||
                code == util::StatusCode::kFailedPrecondition)
        << "case " << i << ": " << status.ToString();
    EXPECT_FALSE(status.message().empty()) << "case " << i;
  }
  EXPECT_GT(rejected, static_cast<size_t>(kCases) / 10);
}

}  // namespace
}  // namespace pghive::service
