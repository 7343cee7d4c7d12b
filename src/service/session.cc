#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <future>
#include <sstream>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/pgschema_parser.h"
#include "core/schema_diff.h"
#include "core/serialize.h"
#include "core/validator.h"
#include "pg/graph_io.h"
#include "util/atomic_write.h"
#include "util/binio.h"

namespace pghive::service {

namespace {

constexpr char kSessionMagic[4] = {'P', 'G', 'H', 'D'};
// v1: self-contained (graph text + assembler sections); no longer written,
// but checkpoint dirs left by older builds still restore. v2: every
// checkpoint, whose graph is in the journal.
constexpr uint32_t kSelfContainedVersion = 1;
constexpr uint32_t kJournaledVersion = 2;

// Session snapshot section ids ("PGHD" container). Never renumber.
constexpr uint32_t kGraphTextSection = 1;
constexpr uint32_t kAssemblerSection = 2;
constexpr uint32_t kHiveStateSection = 3;
constexpr uint32_t kCountersSection = 4;
/// u64 batch sequence of the journal's first record; present instead of the
/// graph text and assembler sections.
constexpr uint32_t kJournalSection = 5;

/// Ceiling on one WaitForDiffs long-poll, so a subscriber can never wedge
/// server shutdown for longer than this.
constexpr uint64_t kMaxFeedWaitMs = 30000;

/// Reconciles a feed segment file with a restored session's version counter:
/// keeps the longest clean prefix of records numbered contiguously
/// 1..max_version and truncates everything past it — a torn tail from a
/// crash, or versions the restored session will re-publish (and re-append)
/// while replaying batches the checkpoint had not yet seen.
util::Status TruncateFeedFile(const std::string& path, uint64_t max_version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::Ok();  // No segment yet: nothing to reconcile.
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return util::Status::IoError("cannot read " + path);
  size_t valid_prefix = 0;
  auto records = core::ScanSchemaDiffStream(bytes, &valid_prefix);
  size_t keep = 0;
  uint64_t expect = 1;
  for (const core::SchemaDiffRecord& record : records) {
    if (expect > max_version || record.diff.version_to != expect) break;
    keep = record.offset + record.length;
    ++expect;
  }
  if (keep == bytes.size()) return util::Status::Ok();
  return util::AtomicWriteFile(path, std::string_view(bytes).substr(0, keep));
}

/// Frames one journal record: a util/binio section whose id is the batch
/// sequence number.
util::Status AppendJournalSection(std::string* out, uint64_t batch,
                                  std::string_view payload) {
  if (batch > UINT32_MAX) {
    return util::Status::OutOfRange("journal record ids end at batch " +
                                    std::to_string(UINT32_MAX));
  }
  util::AppendSection(out, static_cast<uint32_t>(batch), payload);
  return util::Status::Ok();
}

}  // namespace

std::string SessionDurability::journal_path() const {
  if (state_path.empty()) return std::string();
  return std::filesystem::path(state_path).replace_extension(".journal")
      .string();
}

Session::Session(std::string id, core::PgHiveOptions options,
                 util::ThreadPool* pool, JobQueue* queue,
                 SessionDurability durability)
    : id_(std::move(id)),
      options_(options),
      durability_(std::move(durability)),
      queue_(queue),
      journal_path_(durability_.journal_path()) {
  graph_ = std::make_unique<pg::PropertyGraph>();
  // The hive shares the cross-session pool; per-session ordering comes from
  // the job lane, not from a dedicated pool.
  hive_ = std::make_unique<core::PgHive>(graph_.get(), options_, pool);
  assembler_ = std::make_unique<GraphAssembler>(graph_.get());
}

util::StatusOr<std::shared_ptr<Session>> Session::Create(
    std::string id, const std::map<std::string, std::string>& option_flags,
    util::ThreadPool* pool, JobQueue* queue, SessionDurability durability) {
  auto options = core::ParsePgHiveOptions(option_flags);
  if (!options.ok()) return options.status();
  // A fresh session owns its durability paths outright: stale files there
  // (say, from a session that published a feed but died before its first
  // checkpoint) must not leak into this one's history.
  if (!durability.state_path.empty()) {
    std::remove(durability.state_path.c_str());
    std::remove(durability.journal_path().c_str());
  }
  if (!durability.feed_path.empty()) {
    std::remove(durability.feed_path.c_str());
  }
  return std::shared_ptr<Session>(new Session(std::move(id), *options, pool,
                                              queue, std::move(durability)));
}

Session::~Session() { Drain(); }

void Session::Drain() { queue_->DrainLane(id_); }

util::StatusOr<uint64_t> Session::SubmitIngest(std::string payload) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finish_submitted_) {
      return util::Status::FailedPrecondition(
          "session " + id_ + " is finished; create a new session to ingest");
    }
    if (!status_.ok()) return status_;
    seq = ++batches_submitted_;
  }
  auto shared_payload = std::make_shared<std::string>(std::move(payload));
  if (!queue_->Submit(id_, [this, shared_payload] {
        IngestJob(*shared_payload);
      })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return seq;
}

void Session::IngestJob(const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return;  // Poisoned: drop follow-on batches.
  }
  pg::GraphBatch batch;
  util::Status status = assembler_->ApplyPayload(payload, &batch);
  if (status.ok()) {
    status = hive_->ProcessBatch(batch);
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = status;
    return;
  }
  if (!journal_path_.empty()) {
    AppendJournalRecord(hive_->batches_processed(), payload);
  }
  Publish(/*is_final=*/false);
  if (!durability_.state_path.empty() && durability_.checkpoint_every > 0 &&
      hive_->batches_processed() % durability_.checkpoint_every == 0) {
    util::Status checkpointed = CheckpointInLane();
    if (!checkpointed.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_.ok()) status_ = checkpointed;
    }
  }
}

void Session::FinishJob() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return;
  }
  util::Status status = assembler_->CheckComplete();
  if (status.ok()) {
    status = hive_->Finish();
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = status;
    return;
  }
  Publish(/*is_final=*/true);
  // The final schema always checkpoints (regardless of checkpoint_every), so
  // a restart after Finish still serves the post-processed snapshot.
  if (!durability_.state_path.empty()) {
    util::Status checkpointed = CheckpointInLane();
    if (!checkpointed.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (status_.ok()) status_ = checkpointed;
    }
  }
}

std::shared_ptr<SchemaSnapshot> Session::RenderSnapshot(bool is_final) const {
  auto snapshot = std::make_shared<SchemaSnapshot>();
  snapshot->batches = hive_->batches_processed();
  snapshot->is_final = is_final;
  const core::SchemaGraph& schema = hive_->schema();
  const pg::Vocabulary& vocab = graph_->vocab();
  snapshot->pgs_strict =
      core::SerializePgSchema(schema, vocab, core::SchemaMode::kStrict);
  snapshot->pgs_loose =
      core::SerializePgSchema(schema, vocab, core::SchemaMode::kLoose);
  snapshot->xsd = core::SerializeXsd(schema, vocab);
  snapshot->describe = core::DescribeSchema(schema, vocab);
  snapshot->binary = core::SerializeSchemaBinary(schema);
  return snapshot;
}

void Session::Publish(bool is_final) {
  auto snapshot = RenderSnapshot(is_final);
  // The changefeed record for this publish. Diffed in-lane (the renderer
  // reads the vocabulary, which only lane jobs may touch) against the
  // schema as of the previous publish.
  core::SchemaDiff diff =
      core::DiffSchemas(prev_schema_, hive_->schema(), graph_->vocab());
  prev_schema_ = hive_->schema();
  diff.batch = snapshot->batches;
  // versions_published_ is only ever advanced from lane jobs, which the
  // queue serializes, so reading it here without the mutex is ordered; the
  // mutex below still guards the cross-thread readers.
  const uint64_t version = versions_published_ + 1;
  diff.version_from = version - 1;
  diff.version_to = version;
  std::string record = core::SerializeSchemaDiffBinary(diff);
  // Spill to the segment file *before* the version becomes visible: once a
  // subscriber can name this version, the file must already cover it — that
  // invariant is what lets WaitForDiffs serve pruned versions from disk.
  AppendFeedRecord(record);
  std::lock_guard<std::mutex> lock(mutex_);
  versions_published_ = version;
  snapshot->version = version;
  feed_records_.push_back(std::move(record));
  while (feed_records_.size() > durability_.feed_backlog) {
    feed_records_.pop_front();
    ++first_feed_version_;
  }
  snapshot_ = std::move(snapshot);
  feed_cv_.notify_all();
}

void Session::AppendFeedRecord(const std::string& record) {
  if (durability_.feed_path.empty()) return;
  if (!feed_out_.is_open()) {
    feed_out_.open(durability_.feed_path, std::ios::binary | std::ios::app);
  }
  feed_out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  feed_out_.flush();
  if (!feed_out_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) {
      status_ = util::Status::IoError("cannot append changefeed segment " +
                                      durability_.feed_path);
    }
  }
}

void Session::AppendJournalRecord(uint64_t batch, const std::string& payload) {
  std::string record;
  record.reserve(payload.size() + 16);
  util::Status status = AppendJournalSection(&record, batch, payload);
  if (status.ok()) {
    if (!journal_out_.is_open()) {
      journal_out_.open(journal_path_, std::ios::binary | std::ios::app);
    }
    journal_out_.write(record.data(),
                       static_cast<std::streamsize>(record.size()));
    if (!journal_out_) {
      status = util::Status::IoError("cannot append journal " + journal_path_);
    }
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = status;
  }
}

std::shared_ptr<const SchemaSnapshot> Session::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

util::StatusOr<std::shared_ptr<const SchemaSnapshot>> Session::FinalSnapshot() {
  bool submit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!finish_submitted_) {
      finish_submitted_ = true;
      submit = true;
    }
  }
  if (submit) {
    queue_->Submit(id_, [this] { FinishJob(); });
  }
  Drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return status_;
    if (snapshot_ == nullptr || !snapshot_->is_final) {
      return util::Status::Internal("finish produced no snapshot");
    }
    return snapshot_;
  }
}

util::StatusOr<ValidationResult> Session::Validate(
    const std::string& pgs_text, bool strict) {
  auto task = std::make_shared<std::packaged_task<
      util::StatusOr<ValidationResult>()>>([this, pgs_text, strict] {
    // A vocabulary copy keeps schema parsing from interning labels or keys
    // the stream never mentioned — interning into the live vocabulary would
    // shift token order for batches still to come.
    pg::Vocabulary vocab = graph_->vocab();
    auto schema = core::ParsePgSchema(pgs_text, &vocab);
    if (!schema.ok()) return util::StatusOr<ValidationResult>(schema.status());
    core::ValidatorOptions options;
    options.mode = strict ? core::SchemaMode::kStrict : core::SchemaMode::kLoose;
    core::SchemaValidator validator(&schema.value(), options);
    core::ValidationReport report = validator.Validate(*graph_);
    ValidationResult result;
    result.conforms = report.conforms();
    result.report = report.Summary();
    return util::StatusOr<ValidationResult>(std::move(result));
  });
  std::future<util::StatusOr<ValidationResult>> future = task->get_future();
  if (!queue_->Submit(id_, [task] { (*task)(); })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return future.get();
}

util::Status Session::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

util::StatusOr<std::string> Session::BuildStateBytes() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status_.ok()) return status_;
  }
  std::string bytes;
  bytes.append(kSessionMagic, sizeof(kSessionMagic));
  util::PutU32(&bytes, kJournaledVersion);
  std::ostringstream hive;
  util::Status saved = hive_->SaveState(hive);
  if (!saved.ok()) return saved;
  util::AppendSection(&bytes, kHiveStateSection, hive.str());
  std::string counters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Submitted == processed here: this code runs as a lane job, so every
    // batch submitted before it has already committed, and any submitted
    // after it will replay against the restored session.
    util::PutU64(&counters, hive_->batches_processed());
    util::PutU64(&counters, versions_published_);
    util::PutU8(&counters, finish_submitted_ ? 1 : 0);
  }
  util::AppendSection(&bytes, kCountersSection, counters);
  std::string journal;
  util::PutU64(&journal, journal_first_batch_);
  util::AppendSection(&bytes, kJournalSection, journal);
  return bytes;
}

util::Status Session::CheckpointInLane() {
  if (durability_.state_path.empty()) return util::Status::Ok();
  auto bytes = BuildStateBytes();
  if (!bytes.ok()) return bytes.status();
  // The checkpoint counts journal records, so every one of them must be in
  // the file before the checkpoint replaces its predecessor.
  if (journal_out_.is_open() && !journal_out_.flush()) {
    return util::Status::IoError("cannot flush journal " + journal_path_);
  }
  return util::AtomicWriteFile(durability_.state_path, *bytes);
}

util::Status Session::ReplayJournal(uint64_t first_batch, uint64_t batches) {
  journal_first_batch_ = first_batch;
  std::string bytes;
  std::ifstream in(journal_path_, std::ios::binary);
  if (in) {
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    if (in.bad()) return util::Status::IoError("cannot read " + journal_path_);
  }
  const uint64_t records = batches == 0 ? 0 : batches - first_batch + 1;
  util::ByteReader reader(bytes);
  for (uint64_t i = 0; i < records; ++i) {
    const uint64_t batch = first_batch + i;
    const std::string where = "journal " + journal_path_ + ": record " +
                              std::to_string(i + 1) + " of " +
                              std::to_string(records) + " (batch " +
                              std::to_string(batch) + ")";
    if (reader.AtEnd()) return util::Status::ParseError(where + " is missing");
    uint32_t id = 0;
    std::string_view payload;
    if (!util::ReadSection(&reader, &id, &payload)) {
      return util::Status::ParseError(where + " is truncated or corrupt");
    }
    if (id != batch) {
      return util::Status::ParseError(where + " is numbered " +
                                      std::to_string(id));
    }
    pg::GraphBatch members;  // Membership is already folded into the hive.
    util::Status applied =
        assembler_->ApplyPayload(std::string(payload), &members);
    if (!applied.ok()) {
      return util::Status(applied.code(), where + ": " + applied.message());
    }
  }
  // Same reconcile rule as the feed segment: keep the records the checkpoint
  // counts and drop the rest — a torn tail from a crash, or batches the
  // client will resend (and the session re-append) after the restart.
  if (reader.pos() < bytes.size()) {
    std::error_code ec;
    std::filesystem::resize_file(journal_path_, reader.pos(), ec);
    if (ec) {
      return util::Status::IoError("cannot truncate " + journal_path_ + ": " +
                                   ec.message());
    }
  }
  return util::Status::Ok();
}

util::Status Session::RebaseJournal(uint64_t batches) {
  if (batches == 0) {
    std::remove(journal_path_.c_str());
    return util::Status::Ok();
  }
  journal_first_batch_ = batches;
  std::string record;
  util::Status framed = AppendJournalSection(
      &record, batches, assembler_->AssembledPayload());
  if (!framed.ok()) return framed;
  return util::AtomicWriteFile(journal_path_, record);
}

util::Status Session::WriteCheckpoint() {
  if (durability_.state_path.empty()) return util::Status::Ok();
  auto task = std::make_shared<std::packaged_task<util::Status()>>(
      [this] { return CheckpointInLane(); });
  std::future<util::Status> future = task->get_future();
  if (!queue_->Submit(id_, [task] { (*task)(); })) {
    return util::Status::FailedPrecondition("service is shutting down");
  }
  return future.get();
}

util::StatusOr<std::shared_ptr<Session>> Session::CreateFromState(
    std::string id, const std::string& bytes, util::ThreadPool* pool,
    JobQueue* queue, SessionDurability durability) {
  util::ByteReader in(bytes);
  if (!in.Has(sizeof(kSessionMagic)) ||
      bytes.compare(0, sizeof(kSessionMagic), kSessionMagic,
                    sizeof(kSessionMagic)) != 0) {
    return util::Status::ParseError("session snapshot: bad magic");
  }
  in.ReadBytes(sizeof(kSessionMagic));
  uint32_t version = in.ReadU32();
  // Forward compatible like the "PGHS" reader: which sections are present,
  // not the version word, decides how to restore, and unknown section ids
  // below are skipped.
  if (!in.ok() || version < kSelfContainedVersion) {
    return util::Status::ParseError(
        "session snapshot: bad header or unsupported version");
  }
  std::map<uint32_t, std::string_view> sections;
  while (!in.AtEnd()) {
    uint32_t section_id = 0;
    std::string_view payload;
    if (!util::ReadSection(&in, &section_id, &payload)) {
      return util::Status::ParseError(
          "session snapshot: truncated or corrupt section");
    }
    if (!sections.emplace(section_id, payload).second) {
      return util::Status::ParseError("session snapshot: duplicate section " +
                                      std::to_string(section_id));
    }
  }
  const bool journaled = sections.count(kJournalSection) != 0;
  std::vector<uint32_t> required = {kHiveStateSection, kCountersSection};
  if (!journaled) {
    required.insert(required.end(), {kGraphTextSection, kAssemblerSection});
  }
  for (uint32_t section : required) {
    if (!sections.count(section)) {
      return util::Status::ParseError("session snapshot: missing section " +
                                      std::to_string(section));
    }
  }
  const std::string hive_bytes(sections.at(kHiveStateSection));
  auto options = core::ReadSnapshotOptions(hive_bytes);
  if (!options.ok()) return options.status();

  util::ByteReader counters(sections.at(kCountersSection));
  const uint64_t batches_submitted = counters.ReadU64();
  const uint64_t versions_published = counters.ReadU64();
  const uint8_t finish_submitted = counters.ReadU8();
  if (!counters.ok() || !counters.AtEnd() || finish_submitted > 1) {
    return util::Status::ParseError(
        "session snapshot: corrupt counters section");
  }
  uint64_t journal_first_batch = 1;
  if (journaled) {
    if (durability.state_path.empty()) {
      return util::Status::FailedPrecondition(
          "session snapshot: the graph is in the journal beside its "
          "checkpoint; restore it from the checkpoint dir");
    }
    util::ByteReader journal(sections.at(kJournalSection));
    journal_first_batch = journal.ReadU64();
    if (!journal.ok() || !journal.AtEnd() || journal_first_batch == 0 ||
        (batches_submitted == 0 ? journal_first_batch != 1
                                : journal_first_batch > batches_submitted)) {
      return util::Status::ParseError(
          "session snapshot: corrupt journal section");
    }
  }

  // Reconcile the feed segment with the snapshot before the session can
  // publish: drop any torn tail and any versions past the checkpoint's
  // counter — replaying the uncheckpointed batches re-appends those same
  // versions, byte-identically, without duplication.
  if (!durability.feed_path.empty()) {
    util::Status truncated =
        TruncateFeedFile(durability.feed_path, versions_published);
    if (!truncated.ok()) return truncated;
  }

  std::shared_ptr<Session> session(new Session(std::move(id), *options, pool,
                                               queue, std::move(durability)));
  // Order matters: the hive restore rebuilds the vocabulary first (trivially
  // position-consistent with the empty graph), so the graph replay below
  // resolves every label and key to its snapshotted id — the id order the
  // stream preamble had fixed, which the feature layout depends on.
  std::istringstream hive_in(hive_bytes);
  auto restored = session->hive_->RestoreState(hive_in);
  if (!restored.ok()) return restored.status();
  if (batches_submitted != *restored) {
    return util::Status::ParseError(
        "session snapshot: corrupt counters section");
  }
  if (journaled) {
    util::Status replayed =
        session->ReplayJournal(journal_first_batch, batches_submitted);
    if (!replayed.ok()) return replayed;
  } else {
    util::Status replayed = pg::LoadGraphTextInto(
        std::string(sections.at(kGraphTextSection)), session->graph_.get());
    if (!replayed.ok()) return replayed;
    util::Status assembler =
        session->assembler_->RestoreState(sections.at(kAssemblerSection));
    if (!assembler.ok()) return assembler;
    if (!session->journal_path_.empty()) {
      util::Status rebased = session->RebaseJournal(batches_submitted);
      if (!rebased.ok()) return rebased;
    }
  }

  session->batches_submitted_ = batches_submitted;
  session->versions_published_ = versions_published;
  session->finish_submitted_ = finish_submitted != 0;
  session->prev_schema_ = session->hive_->schema();
  session->first_feed_version_ = versions_published + 1;
  if (versions_published > 0) {
    auto snapshot = session->RenderSnapshot(
        session->hive_->phase() == core::PgHive::Phase::kFinished);
    snapshot->version = versions_published;
    session->snapshot_ = std::move(snapshot);
  }
  return session;
}

util::StatusOr<std::string> Session::WaitForDiffs(uint64_t after_version,
                                                  uint64_t timeout_ms) {
  timeout_ms = std::min<uint64_t>(timeout_ms, kMaxFeedWaitMs);
  std::unique_lock<std::mutex> lock(mutex_);
  feed_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return versions_published_ > after_version || !status_.ok();
  });
  if (!status_.ok()) return status_;
  std::string out;
  if (versions_published_ > after_version &&
      after_version + 1 < first_feed_version_) {
    // Older than the in-memory window: serve the gap from the feed segment
    // file. Safe under mutex_ — every version below first_feed_version_ was
    // flushed to the file before it became visible, and the file is only
    // ever appended to while the session lives.
    auto from_disk = ReadFeedFromDisk(after_version, first_feed_version_);
    if (!from_disk.ok()) return from_disk.status();
    out = std::move(*from_disk);
  }
  for (size_t i = 0; i < feed_records_.size(); ++i) {
    if (first_feed_version_ + i > after_version) out += feed_records_[i];
  }
  return out;
}

util::StatusOr<std::string> Session::ReadFeedFromDisk(
    uint64_t after_version, uint64_t until_version) const {
  const util::Status pruned = util::Status::OutOfRange(
      "changefeed backlog pruned before version " +
      std::to_string(after_version + 1) +
      "; refetch the schema and resubscribe from its version");
  if (durability_.feed_path.empty()) return pruned;
  std::ifstream in(durability_.feed_path, std::ios::binary);
  if (!in) return pruned;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return util::Status::IoError("cannot read changefeed segment " +
                                 durability_.feed_path);
  }
  auto records = core::ScanSchemaDiffStream(bytes, nullptr);
  std::string out;
  uint64_t expect = after_version + 1;
  for (const core::SchemaDiffRecord& record : records) {
    if (record.diff.version_to <= after_version) continue;
    if (expect >= until_version) break;
    // The segment is contiguous from version 1 by construction (restore
    // truncates to a clean prefix, publish appends in order); any gap means
    // the requested range predates what survived.
    if (record.diff.version_to != expect) return pruned;
    out.append(bytes, record.offset, record.length);
    ++expect;
  }
  if (expect < until_version) return pruned;
  return out;
}

}  // namespace pghive::service
