// Recovery suite: CRC-framed journal records, torn-tail vs interior
// corruption, sealed journal segments, the JournalingDatabase replay
// contract (reopening a journal never re-charges a paid query), the
// frontier resume of SQ/RQ-DB-SKY that federation uses, and replay resume
// through a journal — a resumed run must end with the exact skyline AND
// the exact anytime trace of the uninterrupted run.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fs_util.h"
#include "core/pq_db_sky.h"
#include "core/rq_db_sky.h"
#include "core/sq_db_sky.h"
#include "dataset/small_domain.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "net/wire.h"
#include "recovery/checkpoint.h"
#include "recovery/federation_state.h"
#include "recovery/journal.h"
#include "recovery/journaling_database.h"
#include "tests/test_util.h"

namespace hdsky {
namespace recovery {
namespace {

using core::DiscoveryOptions;
using core::DiscoveryResult;
using core::DiscoveryRun;
using data::InterfaceType;
using data::Table;
using interface::Query;
using interface::QueryResult;
using testutil::MakeInterface;

std::string TempDir(const std::string& tag) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      ("hdsky_recovery_" + tag + ".XXXXXX"))
                         .string();
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) : path(TempDir(tag)) {}
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Anti-correlated data keeps the skyline non-trivial: independent
// small-domain tables almost surely contain the all-zero tuple, which
// dominates everything and collapses discovery to one query.
Table MakeSqTable(int64_t n = 400) {
  dataset::SyntheticOptions o;
  o.num_tuples = n;
  o.num_attributes = 3;
  o.domain_size = 8;
  o.distribution = dataset::Distribution::kAntiCorrelated;
  o.iface = InterfaceType::kSQ;
  o.seed = 11;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

Table MakeRqTable(int64_t n = 500) {
  dataset::SmallDomainOptions o;
  o.num_tuples = n;
  o.num_attributes = 3;
  o.domain_size = 12;
  o.correlation = 0.0;
  o.iface = InterfaceType::kRQ;
  o.seed = 13;
  return std::move(dataset::GenerateSmallDomain(o)).value();
}

Table MakePqTable(int64_t n = 300) {
  dataset::SyntheticOptions o;
  o.num_tuples = n;
  o.num_attributes = 3;
  o.domain_size = 6;
  o.distribution = dataset::Distribution::kAntiCorrelated;
  o.iface = InterfaceType::kPQ;
  o.seed = 17;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

// ---------------------------------------------------------------------------
// CRC + record framing.

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_NE(Crc32c("hdsky"), Crc32c("hdskz"));
}

TEST(JournalRecordTest, HeaderRoundTrip) {
  const std::string payload = EncodeHeaderRecord(4);
  auto width = DecodeHeaderRecord(payload);
  ASSERT_TRUE(width.ok()) << width.status();
  EXPECT_EQ(*width, 4);
  // A non-header record is not a header.
  EXPECT_FALSE(DecodeHeaderRecord(EncodeIntentRecord(1, "xx")).ok());
}

TEST(JournalRecordTest, IntentAndResultRoundTrip) {
  Query q(3);
  q.AddEquals(0, 3);
  q.AddEquals(2, 1);
  const std::string sig = q.Signature();
  const int width = 3;
  ASSERT_EQ(sig.size(), static_cast<size_t>(width) * 16);

  auto intent = DecodeRecord(EncodeIntentRecord(7, sig), width);
  ASSERT_TRUE(intent.ok()) << intent.status();
  EXPECT_EQ(intent->type, RecordType::kIntent);
  EXPECT_EQ(intent->seq, 7u);
  EXPECT_EQ(intent->signature, sig);

  QueryResult result;
  result.ids = {5, 9};
  result.tuples = {{1, 2, 3}, {4, 5, 6}};
  auto rec = DecodeRecord(EncodeResultRecord(8, sig, result), width);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->type, RecordType::kResult);
  EXPECT_EQ(rec->seq, 8u);
  EXPECT_EQ(rec->signature, sig);
  EXPECT_EQ(rec->result.ids, result.ids);
  EXPECT_EQ(rec->result.tuples, result.tuples);

  // A signature of the wrong width is rejected.
  EXPECT_FALSE(DecodeRecord(EncodeIntentRecord(1, sig), width + 1).ok());
}

TEST(JournalRecordTest, CheckpointRecordRoundTrip) {
  const std::string blob("state\0blob", 10);
  auto rec = DecodeRecord(EncodeCheckpointRecord(blob), 3);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->type, RecordType::kCheckpoint);
  EXPECT_EQ(rec->state, blob);
  // Trailing bytes are damage.
  EXPECT_FALSE(DecodeRecord(EncodeCheckpointRecord(blob) + "x", 3).ok());
}

// ---------------------------------------------------------------------------
// Journal file: write / read / torn tail / interior corruption.

TEST(JournalFileTest, WriteReadRoundTrip) {
  ScopedDir dir("roundtrip");
  const std::string path = dir.path + "/journal-000001";
  JournalWriter::Options opts;
  auto writer = JournalWriter::Create(path, 3, opts);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(EncodeIntentRecord(1, "a")).ok());
  ASSERT_TRUE((*writer)->Append(EncodeIntentRecord(2, "b")).ok());
  writer->reset();

  auto contents = ReadJournalFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_FALSE(contents->torn);
  ASSERT_EQ(contents->payloads.size(), 3u);  // header + 2 records
  auto width = DecodeHeaderRecord(contents->payloads[0]);
  ASSERT_TRUE(width.ok());
  EXPECT_EQ(*width, 3);

  // Creating over an existing journal must refuse.
  EXPECT_FALSE(JournalWriter::Create(path, 3, opts).ok());
}

TEST(JournalFileTest, TornTailIsTruncatedAndAppendContinues) {
  ScopedDir dir("torn");
  const std::string path = dir.path + "/journal-000001";
  JournalWriter::Options opts;
  auto writer = JournalWriter::Create(path, 3, opts);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(EncodeIntentRecord(1, "aa")).ok());
  writer->reset();

  // Simulate a crash mid-append: half of a frame reaches the disk.
  std::string frame;
  AppendFrame(EncodeIntentRecord(2, "bb"), &frame);
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(frame.data(), 1, frame.size() / 2, f);
    std::fclose(f);
  }

  auto torn = ReadJournalFile(path);
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_TRUE(torn->torn);
  ASSERT_EQ(torn->payloads.size(), 2u);  // header + first record survive

  // OpenForAppend truncates the tail; the journal is whole again.
  auto reopened = JournalWriter::OpenForAppend(path, torn->valid_bytes, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE((*reopened)->Append(EncodeIntentRecord(2, "cc")).ok());
  reopened->reset();
  auto healed = ReadJournalFile(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->torn);
  EXPECT_EQ(healed->payloads.size(), 3u);
}

TEST(JournalFileTest, InteriorCorruptionRejectsAtomically) {
  ScopedDir dir("interior");
  const std::string path = dir.path + "/journal-000001";
  JournalWriter::Options opts;
  auto writer = JournalWriter::Create(path, 3, opts);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(EncodeIntentRecord(1, "aa")).ok());
  ASSERT_TRUE((*writer)->Append(EncodeIntentRecord(2, "bb")).ok());
  writer->reset();

  // Flip one payload byte of the MIDDLE record: unlike a torn tail there
  // is more data after it, so the whole journal must be rejected.
  const std::string header = EncodeHeaderRecord(3);
  const int64_t offset =
      static_cast<int64_t>(kRecordHeaderBytes + header.size()) +
      static_cast<int64_t>(kRecordHeaderBytes);  // first byte of record 1
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    const char flip = '\xff';
    std::fwrite(&flip, 1, 1, f);
    std::fclose(f);
  }
  auto corrupt = ReadJournalFile(path);
  EXPECT_FALSE(corrupt.ok());
}

TEST(JournalFileTest, EmptyFileYieldsZeroRecords) {
  ScopedDir dir("empty");
  const std::string path = dir.path + "/journal-000001";
  { std::fclose(std::fopen(path.c_str(), "wb")); }
  auto contents = ReadJournalFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->payloads.empty());
  EXPECT_EQ(contents->valid_bytes, 0);
}

// ---------------------------------------------------------------------------
// Manifest + session state.

TEST(CheckpointTest, ManifestRoundTripAndDamage) {
  ScopedDir dir("manifest");
  EXPECT_TRUE(ReadManifest(dir.path).status().IsNotFound());

  Manifest m;
  m.first = 1;
  m.live = 7;
  ASSERT_TRUE(WriteManifest(dir.path, m).ok());
  auto back = ReadManifest(dir.path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->first, 1);
  EXPECT_EQ(back->live, 7);

  // A damaged manifest is an error, never a guess.
  const std::string path = dir.path + "/" + kManifestFileName;
  for (const char* junk : {"junk", "hdsky-manifest-v2 3 2\n",
                           "hdsky-manifest-v2 0 1\n",
                           "hdsky-manifest-v1 1 2\n"}) {
    ASSERT_TRUE(common::AtomicWriteFile(path, junk).ok());
    EXPECT_TRUE(ReadManifest(dir.path).status().IsIOError()) << junk;
  }

  // A v1 manifest before its first checkpoint is segment 1 alone; one
  // that names a snapshot is refused as an older format.
  ASSERT_TRUE(common::AtomicWriteFile(path, "hdsky-manifest-v1 1 0\n").ok());
  back = ReadManifest(dir.path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->first, 1);
  EXPECT_EQ(back->live, 1);
  ASSERT_TRUE(common::AtomicWriteFile(path, "hdsky-manifest-v1 4 1\n").ok());
  EXPECT_TRUE(ReadManifest(dir.path).status().IsUnsupported());
}

TEST(CheckpointTest, SessionStateRoundTrip) {
  SessionState state;
  state.algorithm = "rq";
  state.run_state = std::string("run\0state", 9);
  state.frontier = "frontier-bytes";
  auto back = DecodeSessionState(EncodeSessionState(state));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->algorithm, "rq");
  EXPECT_EQ(back->run_state, state.run_state);
  EXPECT_EQ(back->frontier, "frontier-bytes");

  // The empty blob is the canonical "replay from the start" state.
  auto empty = DecodeSessionState("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->algorithm.empty());
}

TEST(CheckpointTest, RemoveSegmentsAfterKeepsTheNamedSegments) {
  ScopedDir dir("segments");
  for (const char* name : {"journal-000001", "journal-000002",
                           "journal-000003", "MANIFEST", "SESSION"}) {
    ASSERT_TRUE(common::AtomicWriteFile(dir.path + "/" + name, "x").ok());
  }
  RemoveSegmentsAfter(dir.path, 2);
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/journal-000001"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/journal-000002"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/journal-000003"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/MANIFEST"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/SESSION"));
  RemoveSegmentsAfter(dir.path, 0);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/journal-000001"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/MANIFEST"));
}

// ---------------------------------------------------------------------------
// JournalingDatabase: the replay contract.

/// Counts backend executions and remembers the last query signature, so
/// tests can prove a replayed query never reaches the backend.
class CountingDatabase : public interface::HiddenDatabase {
 public:
  explicit CountingDatabase(interface::HiddenDatabase* backend)
      : backend_(backend) {}

  using interface::HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override {
    ++executes_;
    last_signature_ = q.Signature();
    return backend_->Execute(q);
  }
  const data::Schema& schema() const override { return backend_->schema(); }
  int k() const override { return backend_->k(); }
  common::Status ValidateQuery(const Query& q) const override {
    return backend_->ValidateQuery(q);
  }

  int64_t executes() const { return executes_; }
  const std::string& last_signature() const { return last_signature_; }

 private:
  interface::HiddenDatabase* backend_;
  int64_t executes_ = 0;
  std::string last_signature_;
};

TEST(JournalingDatabaseTest, ReopenReplaysWithoutRecharging) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase counting(iface.get());
  ScopedDir dir("replay");

  std::vector<Query> queries;
  for (data::Value v = 0; v < 4; ++v) {
    Query q(3);
    q.AddEquals(0, v);
    queries.push_back(q);
  }

  JournalingDatabase::Options opts;
  std::vector<QueryResult> first_answers;
  {
    auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_FALSE((*journal)->resumed());
    for (const Query& q : queries) {
      auto r = (*journal)->Execute(q);
      ASSERT_TRUE(r.ok()) << r.status();
      first_answers.push_back(*r);
    }
    EXPECT_EQ((*journal)->stats().paid, 4);
    EXPECT_EQ(counting.executes(), 4);
  }

  // Reopen: every journaled query replays locally; the backend is never
  // consulted for them.
  auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_TRUE((*journal)->resumed());
  EXPECT_EQ((*journal)->entries(), 4);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = (*journal)->Execute(queries[i]);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->ids, first_answers[i].ids);
    EXPECT_EQ(r->tuples, first_answers[i].tuples);
  }
  EXPECT_EQ((*journal)->stats().replayed, 4);
  EXPECT_EQ((*journal)->stats().paid, 0);
  EXPECT_EQ(counting.executes(), 4);  // unchanged
}

TEST(JournalingDatabaseTest, DanglingIntentResendsUnderSameSeq) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase counting(iface.get());
  ScopedDir dir("dangling");

  Query paid(3);
  paid.AddEquals(0, 1);
  Query in_flight(3);
  in_flight.AddEquals(0, 2);

  JournalingDatabase::Options opts;
  {
    auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->Execute(paid).ok());
  }
  // Simulate a crash between paying and journaling the answer: append a
  // bare intent for the in-flight query.
  {
    auto contents = ReadJournalFile(dir.path + "/journal-000001");
    ASSERT_TRUE(contents.ok());
    auto writer = JournalWriter::OpenForAppend(
        dir.path + "/journal-000001", contents->valid_bytes, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(EncodeIntentRecord(2, in_flight.Signature())).ok());
  }

  auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE((*journal)->pending_intent_signature().has_value());
  EXPECT_EQ(*(*journal)->pending_intent_signature(), in_flight.Signature());
  // The re-send must go out under the journaled sequence number.
  EXPECT_EQ((*journal)->next_wire_seq(), 2u);

  // A replayed query still answers locally with the intent outstanding.
  ASSERT_TRUE((*journal)->Execute(paid).ok());
  EXPECT_EQ((*journal)->stats().replayed, 1);

  // Re-executing the in-flight query consumes the pending intent.
  ASSERT_TRUE((*journal)->Execute(in_flight).ok());
  EXPECT_FALSE((*journal)->pending_intent_signature().has_value());
  EXPECT_EQ((*journal)->next_wire_seq(), 3u);

  // A DIFFERENT fresh query while an intent dangles means the resumed
  // run diverged from its journal — a hard error, not silent corruption.
  {
    auto contents = ReadJournalFile(dir.path + "/journal-000001");
    ASSERT_TRUE(contents.ok());
    auto writer = JournalWriter::OpenForAppend(
        dir.path + "/journal-000001", contents->valid_bytes, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(EncodeIntentRecord(3, in_flight.Signature())).ok());
  }
  auto diverged = JournalingDatabase::Open(&counting, dir.path, opts);
  ASSERT_TRUE(diverged.ok()) << diverged.status();
  Query other(3);
  other.AddEquals(0, 3);
  EXPECT_FALSE((*diverged)->Execute(other).ok());
}

/// Backend whose Execute fails while `dead` is set — a site that is down
/// exactly when the coordinator probes it.
class RevivableDatabase : public interface::HiddenDatabase {
 public:
  explicit RevivableDatabase(interface::HiddenDatabase* backend)
      : backend_(backend) {}
  using interface::HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override {
    if (dead) return common::Status::Unavailable("backend dark");
    ++executes_;
    return backend_->Execute(q);
  }
  const data::Schema& schema() const override { return backend_->schema(); }
  int k() const override { return backend_->k(); }

  bool dead = false;
  int64_t executes() const { return executes_; }

 private:
  interface::HiddenDatabase* backend_;
  int64_t executes_ = 0;
};

TEST(JournalingDatabaseTest, ResolvePendingSettlesUnderOriginalSeq) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  RevivableDatabase flaky(iface.get());
  ScopedDir dir("resolve");

  Query paid(3);
  paid.AddEquals(0, 1);
  Query in_flight(3);
  in_flight.AddEquals(0, 2);

  JournalingDatabase::Options opts;
  {
    auto journal = JournalingDatabase::Open(&flaky, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->Execute(paid).ok());
  }
  // Crash between paying and journaling the answer: a bare intent.
  {
    auto contents = ReadJournalFile(dir.path + "/journal-000001");
    ASSERT_TRUE(contents.ok());
    auto writer = JournalWriter::OpenForAppend(
        dir.path + "/journal-000001", contents->valid_bytes, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append(EncodeIntentRecord(2, in_flight.Signature())).ok());
  }

  auto journal = JournalingDatabase::Open(&flaky, dir.path, opts);
  ASSERT_TRUE(journal.ok()) << journal.status();
  ASSERT_TRUE((*journal)->pending_intent_signature().has_value());

  // While the backend is still dark, resolving fails and the intent
  // stays: the next attempt retries under the SAME wire sequence, so the
  // server can still replay-or-charge exactly once.
  flaky.dead = true;
  EXPECT_FALSE((*journal)->ResolvePending().ok());
  EXPECT_TRUE((*journal)->pending_intent_signature().has_value());
  EXPECT_EQ((*journal)->next_wire_seq(), 2u);

  // Once the backend answers, the intent settles under seq 2 — the query
  // is reconstructed from its journaled signature, nothing else needed.
  flaky.dead = false;
  ASSERT_TRUE((*journal)->ResolvePending().ok());
  EXPECT_FALSE((*journal)->pending_intent_signature().has_value());
  EXPECT_EQ((*journal)->next_wire_seq(), 3u);
  EXPECT_EQ(flaky.executes(), 2);  // the paid query + the settled intent

  // Resolving with nothing pending is a no-op.
  ASSERT_TRUE((*journal)->ResolvePending().ok());
  EXPECT_EQ(flaky.executes(), 2);
}

TEST(JournalingDatabaseTest, WidthMismatchIsRejected) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  ScopedDir dir("width");
  {
    auto journal = JournalingDatabase::Open(iface.get(), dir.path, {});
    ASSERT_TRUE(journal.ok());
  }
  // A backend with a different arity must not adopt this journal.
  dataset::SmallDomainOptions o;
  o.num_tuples = 50;
  o.num_attributes = 4;
  o.domain_size = 4;
  o.iface = InterfaceType::kSQ;
  const Table other = std::move(dataset::GenerateSmallDomain(o)).value();
  auto other_iface = MakeInterface(&other, interface::MakeSumRanking(), 5);
  EXPECT_FALSE(JournalingDatabase::Open(other_iface.get(), dir.path, {}).ok());
}

/// Every regular file name in `dir`, sorted.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

Query EqualsQuery(data::Value v) {
  Query q(3);
  q.AddEquals(0, v);
  return q;
}

/// Appends the first half of one more frame to `path`: a crash mid-append.
void AppendTornFrame(const std::string& path) {
  std::string frame;
  AppendFrame(EncodeIntentRecord(99, EqualsQuery(7).Signature()), &frame);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(frame.data(), 1, frame.size() / 2, f);
  std::fclose(f);
}

TEST(JournalingDatabaseTest, CheckpointNeverRewritesAnAnswer) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase counting(iface.get());
  ScopedDir dir("sealed");

  constexpr int64_t kEvery = 3;
  constexpr int kQueries = 8;
  JournalingDatabase::Options opts;
  opts.checkpoint_every = kEvery;
  auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
  ASSERT_TRUE(journal.ok()) << journal.status();

  // Bytes of each segment at the moment it was first seen sealed.
  std::map<int64_t, std::string> sealed;
  const auto check_sealed = [&] {
    for (int64_t n = 1; n < (*journal)->epoch(); ++n) {
      auto bytes =
          common::ReadFileToString(dir.path + "/" + JournalFileName(n));
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      const auto [it, first_seen] = sealed.emplace(n, *bytes);
      if (!first_seen) {
        EXPECT_EQ(it->second, *bytes) << "segment " << n << " was rewritten";
      }
    }
  };
  for (data::Value v = 0; v < kQueries; ++v) {
    ASSERT_TRUE((*journal)->Execute(EqualsQuery(v)).ok());
    check_sealed();
  }
  ASSERT_TRUE((*journal)->Finish("final-state").ok());
  check_sealed();

  // 8 answers at 3 per segment: two sealed mid-run, the third by Finish,
  // and a fresh live segment after it.
  EXPECT_EQ((*journal)->epoch(), 4);
  ASSERT_EQ(sealed.size(), 3u);
  const std::vector<std::string> expected = {
      "MANIFEST", "journal-000001", "journal-000002", "journal-000003",
      "journal-000004"};
  EXPECT_EQ(FileNames(dir.path), expected);  // no snapshot, nothing deleted

  // Each sealed segment holds its own answers once, then its checkpoint
  // record; the last checkpoint record is the resume state.
  int64_t answers = 0;
  for (const auto& [n, bytes] : sealed) {
    auto contents = ReadJournalFile(dir.path + "/" + JournalFileName(n));
    ASSERT_TRUE(contents.ok()) << contents.status();
    EXPECT_FALSE(contents->torn);
    auto last = DecodeRecord(contents->payloads.back(), 3);
    ASSERT_TRUE(last.ok()) << last.status();
    EXPECT_EQ(last->type, RecordType::kCheckpoint);
    for (size_t i = 1; i < contents->payloads.size(); ++i) {
      auto rec = DecodeRecord(contents->payloads[i], 3);
      ASSERT_TRUE(rec.ok());
      if (rec->type == RecordType::kResult) ++answers;
    }
  }
  EXPECT_EQ(answers, kQueries);
  journal->reset();

  auto reopened = JournalingDatabase::Open(&counting, dir.path, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->entries(), kQueries);
  EXPECT_EQ((*reopened)->restored_state(), "final-state");
  EXPECT_EQ((*reopened)->epoch(), 4);
  for (data::Value v = 0; v < kQueries; ++v) {
    ASSERT_TRUE((*reopened)->Execute(EqualsQuery(v)).ok());
  }
  EXPECT_EQ((*reopened)->stats().replayed, kQueries);
  EXPECT_EQ(counting.executes(), kQueries);  // every answer replayed
}

TEST(JournalingDatabaseTest, ResumingAFinishedJournalAddsNoSegment) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase counting(iface.get());
  ScopedDir dir("finished");
  JournalingDatabase::Options opts;
  opts.checkpoint_every = 2;
  {
    auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (data::Value v = 0; v < 5; ++v) {
      ASSERT_TRUE((*journal)->Execute(EqualsQuery(v)).ok());
    }
    ASSERT_TRUE((*journal)->Finish("final-state").ok());
  }
  const auto snapshot = [&] {
    std::map<std::string, std::string> files;
    for (const std::string& name : FileNames(dir.path)) {
      auto bytes = common::ReadFileToString(dir.path + "/" + name);
      EXPECT_TRUE(bytes.ok()) << bytes.status();
      files[name] = bytes.ok() ? *bytes : "";
    }
    return files;
  };
  const auto finished = snapshot();
  for (int resume = 0; resume < 3; ++resume) {
    auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    const int64_t epoch = (*journal)->epoch();
    for (data::Value v = 0; v < 5; ++v) {
      ASSERT_TRUE((*journal)->Execute(EqualsQuery(v)).ok());
    }
    ASSERT_TRUE((*journal)->Finish("final-state").ok());
    EXPECT_EQ((*journal)->epoch(), epoch) << "resume " << resume;
    EXPECT_EQ(snapshot(), finished) << "resume " << resume;
  }
  EXPECT_EQ(counting.executes(), 5);

  // A new answer, or a new resume state, is still sealed.
  auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
  ASSERT_TRUE(journal.ok()) << journal.status();
  const int64_t epoch = (*journal)->epoch();
  ASSERT_TRUE((*journal)->Finish("other-state").ok());
  EXPECT_EQ((*journal)->epoch(), epoch + 1);
  ASSERT_TRUE((*journal)->Execute(EqualsQuery(9)).ok());
  ASSERT_TRUE((*journal)->Finish("other-state").ok());
  EXPECT_EQ((*journal)->epoch(), epoch + 2);
  ASSERT_TRUE((*journal)->Finish("other-state").ok());
  EXPECT_EQ((*journal)->epoch(), epoch + 2);
}

TEST(JournalingDatabaseTest, TornSealedSegmentIsRejectedTornLiveIsTruncated) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase counting(iface.get());
  ScopedDir dir("torn_segment");

  JournalingDatabase::Options opts;
  opts.checkpoint_every = 2;
  {
    auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (data::Value v = 0; v < 5; ++v) {
      ASSERT_TRUE((*journal)->Execute(EqualsQuery(v)).ok());
    }
    ASSERT_EQ((*journal)->epoch(), 3);  // segments 1 and 2 sealed
  }

  // A torn live segment is what a crash mid-append leaves: the tail is
  // cut off and the session carries on.
  const std::string live = dir.path + "/" + JournalFileName(3);
  const auto whole_size = std::filesystem::file_size(live);
  AppendTornFrame(live);
  ASSERT_GT(std::filesystem::file_size(live), whole_size);
  {
    auto journal = JournalingDatabase::Open(&counting, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_EQ((*journal)->entries(), 5);
    EXPECT_FALSE((*journal)->pending_intent_signature().has_value());
    EXPECT_EQ(std::filesystem::file_size(live), whole_size);
  }

  // A sealed segment that lost its last records on a frame boundary
  // reads as whole, but a seal always ends in its checkpoint record.
  const std::string second = dir.path + "/" + JournalFileName(2);
  {
    auto contents = ReadJournalFile(second);
    ASSERT_TRUE(contents.ok());
    std::filesystem::resize_file(
        second, static_cast<uintmax_t>(contents->valid_bytes) -
                    kRecordHeaderBytes - contents->payloads.back().size());
  }
  auto cut = JournalingDatabase::Open(&counting, dir.path, opts);
  EXPECT_TRUE(cut.status().IsIOError()) << cut.status();
  EXPECT_NE(cut.status().message().find(JournalFileName(2)),
            std::string::npos)
      << cut.status();

  // A sealed segment was synced whole before MANIFEST named its
  // successor, so a torn tail there is corruption too.
  const std::string first = dir.path + "/" + JournalFileName(1);
  AppendTornFrame(first);
  const auto torn_size = std::filesystem::file_size(first);
  auto refused = JournalingDatabase::Open(&counting, dir.path, opts);
  EXPECT_TRUE(refused.status().IsIOError()) << refused.status();
  EXPECT_NE(refused.status().message().find(JournalFileName(1)),
            std::string::npos)
      << refused.status();
  EXPECT_EQ(std::filesystem::file_size(first), torn_size);  // left as is
  EXPECT_EQ(counting.executes(), 5);
}

TEST(JournalingDatabaseTest, DanglingIntentInASealedSegmentResumes) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  RevivableDatabase flaky(iface.get());
  ScopedDir dir("sealed_intent");

  const Query paid = EqualsQuery(1);
  const Query in_flight = EqualsQuery(2);
  JournalingDatabase::Options opts;
  {
    auto journal = JournalingDatabase::Open(&flaky, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->Execute(paid).ok());
    // The backend dies with the query in flight: its intent is journaled
    // and the checkpoint after it seals the intent into segment 1.
    flaky.dead = true;
    EXPECT_FALSE((*journal)->Execute(in_flight).ok());
    ASSERT_TRUE((*journal)->Checkpoint("state").ok());
    EXPECT_EQ((*journal)->epoch(), 2);
  }
  auto live = ReadJournalFile(dir.path + "/" + JournalFileName(2));
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->payloads.size(), 1u);  // header only: no intent copy

  flaky.dead = false;
  {
    auto journal = JournalingDatabase::Open(&flaky, dir.path, opts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->pending_intent_signature().has_value());
    EXPECT_EQ(*(*journal)->pending_intent_signature(), in_flight.Signature());
    EXPECT_EQ((*journal)->next_wire_seq(), 2u);
    ASSERT_TRUE((*journal)->Execute(paid).ok());  // replays, intent stays
    EXPECT_EQ((*journal)->stats().replayed, 1);
    ASSERT_TRUE((*journal)->Execute(in_flight).ok());  // re-sent as seq 2
    EXPECT_FALSE((*journal)->pending_intent_signature().has_value());
    EXPECT_EQ((*journal)->next_wire_seq(), 3u);
  }
  auto journal = JournalingDatabase::Open(&flaky, dir.path, opts);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_FALSE((*journal)->pending_intent_signature().has_value());
  EXPECT_EQ((*journal)->entries(), 2);
  EXPECT_EQ(flaky.executes(), 2);
}

TEST(JournalingDatabaseTest, SnapshotDirectoryOfAnOlderReleaseIsRefused) {
  const Table t = MakeSqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  ScopedDir dir("v1");
  const std::string manifest = "hdsky-manifest-v1 3 1\n";
  for (const auto& [name, contents] :
       std::map<std::string, std::string>{{"MANIFEST", manifest},
                                          {"snapshot-000003", "snap"},
                                          {"journal-000003", "tail"}}) {
    ASSERT_TRUE(
        common::AtomicWriteFile(dir.path + "/" + name, contents).ok());
  }
  auto refused = JournalingDatabase::Open(iface.get(), dir.path, {});
  ASSERT_TRUE(refused.status().IsUnsupported()) << refused.status();
  EXPECT_NE(refused.status().message().find("fresh --journal directory"),
            std::string::npos)
      << refused.status();
  // Refusing touches nothing: the older release can still finish it.
  const std::vector<std::string> expected = {"MANIFEST", "journal-000003",
                                             "snapshot-000003"};
  EXPECT_EQ(FileNames(dir.path), expected);
  auto kept = common::ReadFileToString(dir.path + "/MANIFEST");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, manifest);
}

// ---------------------------------------------------------------------------
// FederationSessionState: the coordinator's round checkpoint.

FederationSessionState PopulatedFederationState() {
  FederationSessionState s;
  s.mode = "union";
  s.algorithm = "auto";
  s.rounds = 7;
  s.total_remaining = 123;
  s.backends.resize(2);

  FederatedBackendState& a = s.backends[0];
  a.name = "alpha:4000";
  a.algorithm = "rq";
  a.has_resume = true;
  // Binary-hostile blobs: embedded NULs and high bytes must survive.
  a.run_state = std::string("run\0state\xff", 10);
  a.frontier = std::string("\0\x01\x02stack", 8);
  a.cand_ids = {3, 9};
  a.cand_tuples = {{1, 2}, {4, 0}};
  a.prev_confirmed = 5;
  a.prev_paid = 40;
  a.last_round_paid = 12;
  a.last_round_new = 2;
  a.rounds = 6;
  a.paid = 52;
  a.pruned = 8;
  a.health = 1;  // degraded, mid-backoff
  a.probe_attempts = 2;
  a.next_probe_round = 11;
  a.recoveries = 1;
  a.observed_ids = {3, 9, 14};
  a.observed_tuples = {{1, 2}, {4, 0}, {5, 5}};

  FederatedBackendState& b = s.backends[1];
  b.name = "beta:4001";
  b.algorithm = "sq";
  b.complete = true;
  b.failed = true;
  b.backend_exhausted = true;
  b.error = "backend unreachable: gone";
  b.paid = 17;
  return s;
}

TEST(FederationStateTest, EncodeDecodeRoundTrip) {
  const FederationSessionState s = PopulatedFederationState();
  const std::string blob = EncodeFederationState(s);
  auto decoded = DecodeFederationState(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Re-encode equality covers every field at once...
  EXPECT_EQ(EncodeFederationState(*decoded), blob);
  // ...and the fields a resumed coordinator steers by are spot-checked.
  EXPECT_EQ(decoded->rounds, 7);
  EXPECT_EQ(decoded->total_remaining, 123);
  ASSERT_EQ(decoded->backends.size(), 2u);
  EXPECT_EQ(decoded->backends[0].frontier, s.backends[0].frontier);
  EXPECT_EQ(decoded->backends[0].run_state, s.backends[0].run_state);
  EXPECT_EQ(decoded->backends[0].cand_tuples, s.backends[0].cand_tuples);
  EXPECT_EQ(decoded->backends[0].observed_tuples,
            s.backends[0].observed_tuples);
  EXPECT_EQ(decoded->backends[0].health, 1);
  EXPECT_EQ(decoded->backends[0].next_probe_round, 11);
  EXPECT_TRUE(decoded->backends[1].failed);
  EXPECT_EQ(decoded->backends[1].error, "backend unreachable: gone");
}

TEST(FederationStateTest, SaveLoadAndDamageRejected) {
  ScopedDir dir("fedstate");
  // No checkpoint yet: NotFound, the fresh-session signal.
  EXPECT_TRUE(LoadFederationState(dir.path).status().IsNotFound());

  const FederationSessionState s = PopulatedFederationState();
  ASSERT_TRUE(SaveFederationState(dir.path, s).ok());
  auto loaded = LoadFederationState(dir.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(EncodeFederationState(*loaded), EncodeFederationState(s));

  // Atomic replace: a second checkpoint fully supersedes the first.
  FederationSessionState later = s;
  later.rounds = 8;
  ASSERT_TRUE(SaveFederationState(dir.path, later).ok());
  auto reloaded = LoadFederationState(dir.path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->rounds, 8);

  // A torn STATE (truncated tail) is rejected whole, never partially
  // adopted.
  const std::string state_path =
      dir.path + "/" + kFederationStateFileName;
  const auto full_size = std::filesystem::file_size(state_path);
  std::filesystem::resize_file(state_path, full_size - 3);
  EXPECT_FALSE(LoadFederationState(dir.path).ok());

  // Trailing garbage after the frame is damage too, not slack.
  ASSERT_TRUE(SaveFederationState(dir.path, later).ok());
  {
    std::FILE* f = std::fopen(state_path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("xx", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadFederationState(dir.path).ok());
}

// ---------------------------------------------------------------------------
// DiscoveryRun / SkylineCollector state round trips.

TEST(RunStateTest, CollectorRoundTrip) {
  core::SkylineCollector a({0, 1, 2});
  a.AddConfirmed(4, {1, 2, 3});
  a.AddConfirmed(9, {3, 1, 0});
  std::string blob;
  a.SaveState(&blob);

  core::SkylineCollector b({0, 1, 2});
  ASSERT_TRUE(b.RestoreState(blob, 3).ok());
  EXPECT_EQ(b.ids(), a.ids());
  EXPECT_EQ(b.tuples(), a.tuples());
  // Restored confirmations still prune: a dominated tuple is rejected.
  EXPECT_FALSE(b.Observe(11, {2, 3, 4}));
  // Restore is only legal on an empty collector.
  EXPECT_FALSE(b.RestoreState(blob, 3).ok());
  // Tuples narrower or wider than the live schema are rejected, never
  // indexed.
  core::SkylineCollector narrow({0, 1, 2, 3});
  EXPECT_TRUE(narrow.RestoreState(blob, 4).IsIOError());
  EXPECT_EQ(narrow.size(), 0);
}

TEST(RunStateTest, DiscoveryRunRoundTripPreservesTrace) {
  const Table t = MakeRqTable();
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  DiscoveryOptions opts;
  DiscoveryRun run(iface.get(), opts);
  Query q(3);
  auto r = run.Execute(q);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < r->size(); ++i) {
    run.Observe(r->ids[static_cast<size_t>(i)],
                r->tuples[static_cast<size_t>(i)]);
  }
  std::string blob;
  run.SaveState(&blob);

  auto iface2 = MakeInterface(&t, interface::MakeSumRanking(), 5);
  DiscoveryRun resumed(iface2.get(), opts);
  ASSERT_TRUE(resumed.RestoreState(blob).ok());
  EXPECT_EQ(resumed.queries_issued(), run.queries_issued());
  DiscoveryResult a = run.Finish();
  DiscoveryResult b = resumed.Finish();
  EXPECT_EQ(a.skyline_ids, b.skyline_ids);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].queries_issued, b.trace[i].queries_issued);
    EXPECT_EQ(a.trace[i].skyline_discovered, b.trace[i].skyline_discovered);
  }
}

// ---------------------------------------------------------------------------
// Frontier resume: interrupt a run mid-flight at a checkpoint, resume
// from the captured state, demand the uninterrupted skyline AND trace.

struct CapturedCheckpoint {
  std::string run_state;
  std::string frontier;
};

/// Runs `algo` three ways: uninterrupted (the reference), interrupted
/// after `stop_after` queries with every checkpoint captured, and resumed
/// from the last captured checkpoint. The resumed run must finish with
/// the reference's exact skyline ids and exact anytime trace.
template <typename Algo>
void ExpectFrontierResumeEquivalence(const Table& t, Algo&& algo,
                                     int64_t stop_after) {
  auto ref_iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  DiscoveryOptions plain;
  auto reference = algo(ref_iface.get(), plain);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->complete);

  ASSERT_LT(stop_after, reference->query_cost)
      << "stop_after must interrupt before the run finishes";

  // Interrupted run: capture (run state, frontier) at every consistent
  // boundary, stop via the cooperative interrupt after stop_after backend
  // queries.
  std::optional<CapturedCheckpoint> checkpoint;
  auto int_iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase counting(int_iface.get());
  DiscoveryOptions interrupted;
  interrupted.interrupt = [&] { return counting.executes() >= stop_after; };
  interrupted.on_checkpoint = [&](DiscoveryRun& run,
                                  const core::FrontierSaver& save) {
    CapturedCheckpoint cp;
    run.SaveState(&cp.run_state);
    save(&cp.frontier);
    checkpoint = std::move(cp);
  };
  auto partial = algo(&counting, interrupted);
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_FALSE(partial->complete);
  ASSERT_TRUE(checkpoint.has_value())
      << "run never reached a checkpoint boundary; lower stop_after";

  // Resumed run: fresh interface, fast-forward from the checkpoint.
  auto res_iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  DiscoveryOptions resume;
  resume.resume_run_state = checkpoint->run_state;
  resume.resume_frontier = checkpoint->frontier;
  auto resumed = algo(res_iface.get(), resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->skyline_ids, reference->skyline_ids);
  ASSERT_EQ(resumed->trace.size(), reference->trace.size());
  for (size_t i = 0; i < reference->trace.size(); ++i) {
    EXPECT_EQ(resumed->trace[i].queries_issued,
              reference->trace[i].queries_issued);
    EXPECT_EQ(resumed->trace[i].skyline_discovered,
              reference->trace[i].skyline_discovered);
  }
}

TEST(FrontierResumeTest, SqDbSky) {
  const Table t = MakeSqTable();
  ExpectFrontierResumeEquivalence(
      t,
      [](interface::HiddenDatabase* iface, const DiscoveryOptions& common) {
        core::SqDbSkyOptions opts;
        opts.common = common;
        return core::SqDbSky(iface, opts);
      },
      8);
}

TEST(FrontierResumeTest, RqDbSky) {
  const Table t = MakeRqTable();
  ExpectFrontierResumeEquivalence(
      t,
      [](interface::HiddenDatabase* iface, const DiscoveryOptions& common) {
        core::RqDbSkyOptions opts;
        opts.common = common;
        return core::RqDbSky(iface, opts);
      },
      6);
}

// ---------------------------------------------------------------------------
// Replay resume: a single-site run interrupted over a journal and rerun
// over it replays every paid answer through the algorithm, pays only for
// the rest, and ends with the uninterrupted skyline AND trace.

template <typename Algo>
void ExpectReplayResumeEquivalence(const Table& t, Algo&& algo,
                                   int64_t stop_after) {
  auto ref_iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  auto reference = algo(ref_iface.get(), DiscoveryOptions());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->complete);
  ASSERT_LT(stop_after, reference->query_cost)
      << "stop_after must interrupt before the run finishes";

  ScopedDir dir("replay_resume");
  JournalingDatabase::Options jopts;
  jopts.checkpoint_every = 3;
  auto int_iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase paid_first(int_iface.get());
  {
    auto journal = JournalingDatabase::Open(&paid_first, dir.path, jopts);
    ASSERT_TRUE(journal.ok()) << journal.status();
    DiscoveryOptions interrupted;
    interrupted.interrupt = [&] { return paid_first.executes() >= stop_after; };
    auto partial = algo(journal->get(), interrupted);
    ASSERT_TRUE(partial.ok()) << partial.status();
    ASSERT_FALSE(partial->complete);
    ASSERT_TRUE((*journal)->Finish("").ok());
    ASSERT_GT((*journal)->epoch(), 2) << "no segment was sealed mid-run";
  }

  auto res_iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  CountingDatabase paid_second(res_iface.get());
  auto journal = JournalingDatabase::Open(&paid_second, dir.path, jopts);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = algo(journal->get(), DiscoveryOptions());
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ((*journal)->stats().replayed, paid_first.executes());
  EXPECT_EQ(paid_first.executes() + paid_second.executes(),
            reference->query_cost);
  EXPECT_EQ(resumed->query_cost, reference->query_cost);
  EXPECT_EQ(resumed->skyline_ids, reference->skyline_ids);
  ASSERT_EQ(resumed->trace.size(), reference->trace.size());
  for (size_t i = 0; i < reference->trace.size(); ++i) {
    EXPECT_EQ(resumed->trace[i].queries_issued,
              reference->trace[i].queries_issued);
    EXPECT_EQ(resumed->trace[i].skyline_discovered,
              reference->trace[i].skyline_discovered);
  }
}

TEST(ReplayResumeTest, PqDbSky) {
  const Table t = MakePqTable();
  ExpectReplayResumeEquivalence(
      t,
      [](interface::HiddenDatabase* iface, const DiscoveryOptions& common) {
        core::PqDbSkyOptions opts;
        opts.common = common;
        return core::PqDbSky(iface, opts);
      },
      10);
}

TEST(ReplayResumeTest, RqDbSky) {
  const Table t = MakeRqTable();
  ExpectReplayResumeEquivalence(
      t,
      [](interface::HiddenDatabase* iface, const DiscoveryOptions& common) {
        core::RqDbSkyOptions opts;
        opts.common = common;
        return core::RqDbSky(iface, opts);
      },
      5);
}

// A frontier blob narrower than the live schema must be rejected before
// the driver reads it: a 1-wide seen tuple would make the seen-match test
// read past its end (and a narrow query body would take predicates past
// its last attribute).
TEST(FrontierResumeTest, RejectsFrontierNarrowerThanSchema) {
  const Table t = MakeRqTable();  // 3 attributes
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  const auto rq_blob = [](int query_width, uint32_t seen_width) {
    std::string blob;
    net::Encoder enc(&blob);
    enc.PutU8('R');
    enc.PutU64(1);  // one node: the root
    net::EncodeQueryBody(Query(query_width), &enc);
    net::EncodeQueryBody(Query(query_width), &enc);
    enc.PutU64(1);  // one seen tuple
    enc.PutI64(0);
    enc.PutU32(seen_width);
    for (uint32_t a = 0; a < seen_width; ++a) enc.PutI64(5);
    enc.PutU64(0);  // no processed regions
    return blob;
  };
  core::RqDbSkyOptions rq;
  rq.common.resume_frontier = rq_blob(3, 3);
  ASSERT_TRUE(core::RqDbSky(iface.get(), rq).ok());  // well-formed control
  rq.common.resume_frontier = rq_blob(3, 1);
  EXPECT_TRUE(core::RqDbSky(iface.get(), rq).status().IsIOError());
  rq.common.resume_frontier = rq_blob(1, 3);
  EXPECT_TRUE(core::RqDbSky(iface.get(), rq).status().IsIOError());

  std::string sq_blob;
  net::Encoder enc(&sq_blob);
  enc.PutU8('S');
  enc.PutU64(1);
  net::EncodeQueryBody(Query(1), &enc);
  enc.PutU64(0);
  core::SqDbSkyOptions sq;
  sq.common.resume_frontier = sq_blob;
  EXPECT_TRUE(core::SqDbSky(iface.get(), sq).status().IsIOError());

  // The run-state blob's collector tuples are held to the same width.
  core::SkylineCollector narrow({0});
  narrow.AddConfirmed(1, {4});
  std::string collector_blob;
  narrow.SaveState(&collector_blob);
  std::string run_state;
  net::Encoder run_enc(&run_state);
  run_enc.PutU64(1);  // queries issued
  run_enc.PutU8(0);   // not exhausted
  run_enc.PutU64(0);  // empty trace
  run_enc.PutString(collector_blob);
  DiscoveryOptions opts;
  DiscoveryRun run(iface.get(), opts);
  EXPECT_TRUE(run.RestoreState(run_state).IsIOError());
}

// A seen list that names one id twice would enter the tuple into the
// seen memo twice; the decoder rejects it.
TEST(FrontierResumeTest, RejectsFrontierRepeatingASeenId) {
  const Table t = MakeRqTable();  // 3 attributes
  auto iface = MakeInterface(&t, interface::MakeSumRanking(), 5);
  const auto rq_blob = [](const std::vector<int64_t>& seen_ids) {
    std::string blob;
    net::Encoder enc(&blob);
    enc.PutU8('R');
    enc.PutU64(1);  // one node: the root
    net::EncodeQueryBody(Query(3), &enc);
    net::EncodeQueryBody(Query(3), &enc);
    enc.PutU64(seen_ids.size());
    for (const int64_t id : seen_ids) {
      enc.PutI64(id);
      enc.PutU32(3);
      for (int a = 0; a < 3; ++a) enc.PutI64(5);
    }
    enc.PutU64(0);  // no processed regions
    return blob;
  };
  core::RqDbSkyOptions rq;
  rq.common.resume_frontier = rq_blob({4, 7});
  ASSERT_TRUE(core::RqDbSky(iface.get(), rq).ok());  // well-formed control
  rq.common.resume_frontier = rq_blob({4, 7, 4});
  const common::Status s = core::RqDbSky(iface.get(), rq).status();
  EXPECT_TRUE(s.IsIOError()) << s;
}

}  // namespace
}  // namespace recovery
}  // namespace hdsky
