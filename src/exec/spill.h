// Spill-to-disk layer for the memory-adaptive operators.
//
// When a join, semijoin, distinct or grouped aggregation working set would
// push live charged memory past the soft threshold
// (ExecContext::soft_memory_bytes), the operator hands its inputs to the one
// Grace driver (GraceEvaluate, exec/operators.h): every input is
// hash-partitioned into temp files owned by a SpillManager, then partitions
// are processed one at a time so only a fanout-th of the data is resident,
// re-partitioning one that is still too large. Each row of the last (probe,
// or only) input carries a 64-bit tag (its original row index); the
// per-partition outputs are k-way merged back in tag order, which
// reproduces the serial in-memory emission order exactly — the spill path
// is byte-identical to the in-memory path (see DESIGN.md §6c). Build-side
// runs, whose order nothing reads, are written untagged.
//
// Fault sites: spill.open (temp-file creation), spill.write (buffer flush),
// spill.read (reading a partition back). Every site is wrapped in a bounded
// retry loop — a transient injected failure is retried up to
// SpillOptions::retry_limit times before surfacing as kResourceExhausted —
// so a p=0.05 chaos plan usually completes while an always-fire plan fails
// as a clean typed Status.
//
// On-disk integrity: every flush lands as one self-verifying page
// [payload bytes u64][FNV-1a checksum u64][payload]. ReadBack verifies all
// page checksums before decoding a byte; a mismatch burns a bounded re-read
// retry (a torn concurrent read heals) and, if it persists, surfaces as
// kDataLoss — bit rot is reported, never silently decoded into wrong rows.
//
// The hard kill: spilling charges every flushed byte against
// SpillOptions::disk_budget_bytes; exceeding it returns kResourceExhausted
// (degradation has run out of road — memory *and* disk are exhausted).
//
// Thread safety: one SpillManager is shared by every operator of a run (the
// tree-wave evaluators spill from several nodes concurrently). File creation
// serializes on a mutex; counters are atomics. A SpillFile itself is owned
// and used by a single operator invocation.

#ifndef HTQO_EXEC_SPILL_H_
#define HTQO_EXEC_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/status.h"

namespace htqo {

struct SpillOptions {
  // Directory for temp files; empty = the system temp directory. The
  // manager creates a unique subdirectory and removes it on destruction.
  std::string dir;
  // Hard kill: total bytes the run may flush to disk. Exceeding it fails
  // the spilling operator with kResourceExhausted.
  std::size_t disk_budget_bytes = std::numeric_limits<std::size_t>::max();
  // Partitions per recursion level.
  std::size_t fanout = 8;
  // Maximum repartitioning depth; at the cap a partition is processed
  // in memory regardless of size (correctness over the soft threshold —
  // e.g. all-equal keys cannot be split by rehashing).
  std::size_t max_recursion_depth = 4;
  // Bounded retry for transient spill I/O failures (injected or real).
  std::size_t retry_limit = 3;
  // Encoded bytes buffered per file before a flush (one spill.write site
  // evaluation per flush).
  std::size_t write_buffer_bytes = 1 << 16;
};

// Plain snapshot of a manager's counters, embedded in QueryRun and the
// bench JSON.
struct SpillCounters {
  std::size_t bytes_written = 0;
  std::size_t bytes_read = 0;
  std::size_t partitions = 0;           // spill files created
  std::size_t spill_events = 0;         // operators that took the spill path
  std::size_t max_recursion_depth = 0;  // deepest repartitioning reached
  std::size_t retries = 0;              // transient I/O failures retried

  // Folds another run's counters in (subquery runs merge into their outer
  // run's QueryRun, mirroring GovernorStats::Merge).
  void Merge(const SpillCounters& other) {
    bytes_written += other.bytes_written;
    bytes_read += other.bytes_read;
    partitions += other.partitions;
    spill_events += other.spill_events;
    if (other.max_recursion_depth > max_recursion_depth) {
      max_recursion_depth = other.max_recursion_depth;
    }
    retries += other.retries;
  }
};

class SpillManager;

// One spilled run: rows of a fixed arity, each with a 64-bit tag unless the
// run was created untagged, written once then read back once. The file is
// unlinked on destruction.
class SpillFile {
 public:
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Buffers one row; flushes through the spill.write site when the buffer
  // fills. Flush failure (after retries) or a disk-budget overrun surfaces
  // here as kResourceExhausted. The tagged form is for tagged runs, the
  // untagged one for untagged runs.
  Status Append(uint64_t tag, std::span<const Value> row);
  Status Append(std::span<const Value> row);

  // Flushes the tail buffer; must be called once before ReadBack.
  Status Finish();

  std::size_t rows() const { return rows_; }
  // Total encoded bytes on disk including page headers (valid after Finish)
  // — what loading this partition back will roughly cost in memory.
  std::size_t bytes() const { return bytes_; }
  // On-disk location; exposed so corruption tests can flip bits in place.
  const std::string& path() const { return path_; }

  // Decodes the whole run into `out` (whose schema fixes the arity) and,
  // for a tagged run, the parallel tag vector (`tags` is nullptr for an
  // untagged run), through the spill.read site with bounded retry.
  // Persistent page-checksum mismatches surface as kDataLoss.
  Status ReadBack(Relation* out, std::vector<uint64_t>* tags);

 private:
  friend class SpillManager;
  SpillFile(SpillManager* manager, std::string path, std::FILE* file,
            bool tagged)
      : manager_(manager), path_(std::move(path)), file_(file),
        tagged_(tagged) {}

  Status AppendRow(std::span<const Value> row);
  Status Flush();

  SpillManager* manager_;
  std::string path_;
  std::FILE* file_;
  const bool tagged_;
  std::string buffer_;
  std::size_t rows_ = 0;
  std::size_t bytes_ = 0;  // flushed bytes
  bool finished_ = false;
};

class SpillManager {
 public:
  explicit SpillManager(SpillOptions options);
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  const SpillOptions& options() const { return options_; }
  SpillCounters counters() const;

  // Creates a fresh temp file (fault site spill.open, bounded retry) for a
  // tagged or an untagged run.
  Result<std::unique_ptr<SpillFile>> Create(bool tagged = true);

  // Called once per operator that activates the spill path.
  void NoteSpillEvent() {
    spill_events_.fetch_add(1, std::memory_order_relaxed);
  }
  // Records the deepest repartitioning level reached.
  void NoteRecursionDepth(std::size_t depth);

 private:
  friend class SpillFile;
  // Accounts `bytes` against the disk budget; the spill path's hard kill.
  Status ChargeDisk(std::size_t bytes);
  void NoteBytesRead(std::size_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void NoteRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }

  SpillOptions options_;
  std::mutex mu_;  // guards run_dir_ creation and file numbering
  std::string run_dir_;
  bool run_dir_ready_ = false;
  uint64_t next_file_id_ = 0;
  std::atomic<std::size_t> bytes_written_{0};
  std::atomic<std::size_t> bytes_read_{0};
  std::atomic<std::size_t> partitions_{0};
  std::atomic<std::size_t> spill_events_{0};
  std::atomic<std::size_t> max_depth_{0};
  std::atomic<std::size_t> retries_{0};
};

}  // namespace htqo

#endif  // HTQO_EXEC_SPILL_H_
