// Corruption-robustness fuzz for the column-file reader: every byte of
// a valid SMCOLV2 file is bit-flipped, the file is truncated at every
// length, and a hostile hand-written corpus (tests/column_corpus/) is
// replayed. The invariant under test is that Open/DecodeAll/DecodeScoped
// always return a clean Status — no crash, no overread (ASan-visible),
// no silently wrong acceptance of a file whose checksums cannot match.
//
// Environment knobs (all optional):
//   SM_COLUMN_FUZZ_STEP  byte stride of the bit-flip/truncation sweeps
//                        (default 1 = exhaustive; CI can raise it)
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/seed_generator.h"
#include "storage/block_codec.h"
#include "storage/column_store.h"
#include "storage/scan_scope.h"

namespace smartmeter::storage {
namespace {

namespace fs = std::filesystem;

constexpr size_t kV2HeaderBytes = 48;
constexpr size_t kV2EntryBytes = 72;
constexpr size_t kV2FooterCounts = 24;

size_t SweepStep() {
  const char* value = std::getenv("SM_COLUMN_FUZZ_STEP");
  if (value == nullptr || *value == '\0') return 1;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed >= 1 ? static_cast<size_t>(parsed) : 1;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t GetU64(const std::vector<uint8_t>& bytes, size_t offset) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

void PutU64(std::vector<uint8_t>* bytes, size_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

/// Rewrites the footer and header checksums so a targeted mutation of an
/// index entry survives the outer integrity checks and reaches the deep
/// per-block validation.
void ResealChecksums(std::vector<uint8_t>* bytes) {
  const uint64_t footer_offset = GetU64(*bytes, 32);
  ASSERT_LT(footer_offset, bytes->size());
  const size_t footer_body = bytes->size() - footer_offset - 8;
  PutU64(bytes, footer_offset + footer_body,
         codec::Fnv1a({bytes->data() + footer_offset, footer_body},
                      codec::Fnv1aSeed()));
  PutU64(bytes, 40, codec::Fnv1a({bytes->data(), 40}, codec::Fnv1aSeed()));
}

/// Opens and fully exercises one (possibly corrupt) column file. Every
/// call must come back with a Status — crashing, hanging, or tripping
/// ASan is the failure mode being hunted. Returns true when the whole
/// pipeline succeeded (file behaved as valid).
bool ExerciseFile(const std::string& path) {
  CompressedColumnFile file;
  if (!file.Open(path).ok()) return false;
  std::vector<int64_t> ids;
  std::vector<double> consumption;
  std::vector<double> temperature;
  ScanStats stats;
  bool all_ok = file.DecodeAll(&ids, &consumption, &temperature, &stats).ok();

  ScanScope scoped_rows;
  scoped_rows.row_begin = file.num_households() / 2;
  scoped_rows.row_count = 1;
  ScanScope scoped_hours;
  scoped_hours.hour_begin = file.hours() / 2;
  scoped_hours.hour_count = file.hours() / 4 + 1;
  for (const ScanScope& scope : {scoped_rows, scoped_hours}) {
    ids.clear();
    consumption.clear();
    temperature.clear();
    ScanStats scoped_stats;
    all_ok = file.DecodeScoped(scope, &ids, &consumption, &temperature,
                               &scoped_stats)
                 .ok() &&
             all_ok;
  }
  for (size_t i = 0; i < file.num_consumption_blocks(); ++i) {
    std::vector<double> block_values;
    all_ok = file.DecodeConsumptionBlock(i, &block_values).ok() && all_ok;
  }
  return all_ok;
}

class ColumnStoreFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "column_fuzz";
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    datagen::SeedGeneratorOptions options;
    options.num_households = 5;
    options.hours = 48;
    options.seed = 77;
    auto dataset = datagen::GenerateSeedDataset(options);
    ASSERT_TRUE(dataset.ok());
    valid_path_ = (dir_ / "valid.smcol").string();
    // Small blocks so the sweep visits many block headers and payloads.
    ASSERT_TRUE(ColumnFileWriter::WriteFile(*dataset, valid_path_,
                                            /*block_values=*/32)
                    .ok());
    valid_bytes_ = ReadFileBytes(valid_path_);
    ASSERT_GT(valid_bytes_.size(), kV2HeaderBytes);
    ASSERT_TRUE(ExerciseFile(valid_path_));
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  std::string valid_path_;
  std::vector<uint8_t> valid_bytes_;
};

TEST_F(ColumnStoreFuzzTest, BitFlipSweepNeverCrashes) {
  const std::string mutated_path = (dir_ / "mutated.smcol").string();
  const size_t step = SweepStep();
  size_t accepted = 0;
  for (size_t offset = 0; offset < valid_bytes_.size(); offset += step) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> mutated = valid_bytes_;
      mutated[offset] ^= mask;
      WriteFileBytes(mutated_path, mutated);
      SCOPED_TRACE(testing::Message()
                   << "bit flip at byte " << offset << " mask " << int{mask});
      if (ExerciseFile(mutated_path)) ++accepted;
    }
  }
  // Every section is covered by a checksum, so only flips the reseal-less
  // sweep cannot detect (none) may decode fully; a tiny tolerance is left
  // for FNV collisions, which at this file size do not occur.
  EXPECT_EQ(accepted, 0u);
}

TEST_F(ColumnStoreFuzzTest, TruncationSweepNeverCrashes) {
  const std::string truncated_path = (dir_ / "truncated.smcol").string();
  const size_t step = SweepStep();
  for (size_t length = 0; length < valid_bytes_.size(); length += step) {
    std::vector<uint8_t> truncated(valid_bytes_.begin(),
                                   valid_bytes_.begin() + length);
    WriteFileBytes(truncated_path, truncated);
    SCOPED_TRACE(testing::Message() << "truncated to " << length << " bytes");
    // The header's footer offset can no longer match the file size, so
    // every strict truncation must be rejected outright.
    EXPECT_FALSE(ExerciseFile(truncated_path));
  }
}

TEST_F(ColumnStoreFuzzTest, ResealedIndexMutationsAreRejectedCleanly) {
  // These mutations patch one index entry and then RESEAL the footer and
  // header checksums, so the reader cannot lean on the outer integrity
  // check — the per-entry and per-block validation has to catch them.
  const uint64_t footer_offset = GetU64(valid_bytes_, 32);
  const size_t first_entry = footer_offset + kV2FooterCounts;
  ASSERT_LE(first_entry + kV2EntryBytes, valid_bytes_.size());

  struct Mutation {
    const char* label;
    size_t field_offset;  // Within the first index entry.
    uint64_t value;
  };
  const Mutation mutations[] = {
      {"block offset past EOF", 0, valid_bytes_.size() + 4096},
      {"encoded bytes huge", 8, uint64_t{1} << 60},
      {"encoded bytes zero", 8, 0},
      {"row range inverted", 16, uint64_t{1} << 32},
      {"hour range absurd", 32, uint64_t{1} << 40},
      {"payload checksum flipped", 64,
       GetU64(valid_bytes_, first_entry + 64) ^ 1},
  };
  const std::string mutated_path = (dir_ / "resealed.smcol").string();
  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.label);
    std::vector<uint8_t> mutated = valid_bytes_;
    PutU64(&mutated, first_entry + mutation.field_offset, mutation.value);
    ResealChecksums(&mutated);
    WriteFileBytes(mutated_path, mutated);
    EXPECT_FALSE(ExerciseFile(mutated_path));
  }

  // Deepest path: corrupt a block PAYLOAD header byte (bit width field),
  // then reseal the entry checksum over the corrupt payload so decode is
  // reached with a checksum-clean but invalid block.
  {
    SCOPED_TRACE("bit width out of range, checksums resealed");
    std::vector<uint8_t> mutated = valid_bytes_;
    const uint64_t block_offset = GetU64(mutated, first_entry);
    const uint64_t block_bytes = GetU64(mutated, first_entry + 8);
    ASSERT_LE(block_offset + block_bytes, mutated.size());
    mutated[block_offset + 2] = 0xFF;  // bit_width byte of the block header.
    PutU64(&mutated, first_entry + 64,
           codec::Fnv1a({mutated.data() + block_offset,
                         static_cast<size_t>(block_bytes)},
                        codec::Fnv1aSeed()));
    ResealChecksums(&mutated);
    WriteFileBytes((dir_ / "badwidth.smcol").string(), mutated);
    EXPECT_FALSE(ExerciseFile((dir_ / "badwidth.smcol").string()));
  }
}

// ---------------------------------------------------------------------------
// Hostile corpus: hand-written cases under tests/column_corpus/. Each
// file is whitespace-separated hex bytes with '#' comments; every case is
// invalid by construction and must be rejected without crashing.
// ---------------------------------------------------------------------------

std::vector<uint8_t> ParseHexCase(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<uint8_t> bytes;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    int hi = -1;
    for (char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      const int nibble = std::isdigit(static_cast<unsigned char>(c))
                             ? c - '0'
                             : std::tolower(static_cast<unsigned char>(c)) -
                                   'a' + 10;
      EXPECT_GE(nibble, 0) << path << ": bad hex char '" << c << "'";
      EXPECT_LT(nibble, 16) << path << ": bad hex char '" << c << "'";
      if (hi < 0) {
        hi = nibble;
      } else {
        bytes.push_back(static_cast<uint8_t>(hi * 16 + nibble));
        hi = -1;
      }
    }
    EXPECT_EQ(hi, -1) << path << ": odd number of hex digits";
  }
  return bytes;
}

TEST(ColumnCorpusTest, HostileCasesAreRejectedCleanly) {
  const fs::path corpus_dir(SM_COLUMN_CORPUS_DIR);
  ASSERT_TRUE(fs::exists(corpus_dir)) << corpus_dir;
  const fs::path workdir = fs::path(::testing::TempDir()) / "column_corpus";
  fs::remove_all(workdir);
  fs::create_directories(workdir);
  size_t cases = 0;
  for (const auto& entry : fs::directory_iterator(corpus_dir)) {
    if (entry.path().extension() != ".hex") continue;
    ++cases;
    SCOPED_TRACE(entry.path().filename().string());
    const std::vector<uint8_t> bytes = ParseHexCase(entry.path().string());
    const std::string target =
        (workdir / entry.path().stem().concat(".smcol")).string();
    WriteFileBytes(target, bytes);
    EXPECT_FALSE(ExerciseFile(target));
  }
  EXPECT_GE(cases, 5u) << "hostile corpus went missing";
  std::error_code ec;
  fs::remove_all(workdir, ec);
}

}  // namespace
}  // namespace smartmeter::storage
