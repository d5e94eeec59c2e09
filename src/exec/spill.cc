#include "exec/spill.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/fault_injector.h"
#include "util/governor.h"

namespace htqo {

namespace fs = std::filesystem;

namespace {

// Per-page layout: [payload bytes u64][FNV-1a checksum u64][payload].
constexpr std::size_t kPageHeaderBytes = 2 * sizeof(uint64_t);

uint64_t PageChecksum(const char* data, std::size_t n) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Walks the page stream in `raw`, verifying each page's checksum, and
// appends the concatenated payloads to `payload`. Any structural damage or
// checksum mismatch is kDataLoss (the caller re-reads a bounded number of
// times before surfacing it: a torn in-flight read heals, real on-disk
// corruption does not).
Status VerifyPages(const std::string& raw, const std::string& path,
                   std::string* payload) {
  payload->clear();
  const char* cursor = raw.data();
  const char* end = raw.data() + raw.size();
  while (cursor < end) {
    if (end - cursor < static_cast<std::ptrdiff_t>(kPageHeaderBytes)) {
      return Status::DataLoss("spill: truncated page header in " + path);
    }
    uint64_t payload_size = 0;
    uint64_t checksum = 0;
    std::memcpy(&payload_size, cursor, sizeof(payload_size));
    std::memcpy(&checksum, cursor + sizeof(payload_size), sizeof(checksum));
    cursor += kPageHeaderBytes;
    if (payload_size > static_cast<uint64_t>(end - cursor)) {
      return Status::DataLoss("spill: truncated page payload in " + path);
    }
    if (PageChecksum(cursor, payload_size) != checksum) {
      return Status::DataLoss("spill: page checksum mismatch in " + path);
    }
    payload->append(cursor, payload_size);
    cursor += payload_size;
  }
  return Status::Ok();
}

}  // namespace

SpillManager::SpillManager(SpillOptions options)
    : options_(std::move(options)) {
  if (options_.fanout < 2) options_.fanout = 2;
}

SpillManager::~SpillManager() {
  // SpillFiles unlink themselves; whatever survives (files abandoned by an
  // error path, the run directory itself) goes here. error_code overloads:
  // teardown never throws.
  if (run_dir_ready_) {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }
}

SpillCounters SpillManager::counters() const {
  SpillCounters out;
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.partitions = partitions_.load(std::memory_order_relaxed);
  out.spill_events = spill_events_.load(std::memory_order_relaxed);
  out.max_recursion_depth = max_depth_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  return out;
}

void SpillManager::NoteRecursionDepth(std::size_t depth) {
  AtomicMax(&max_depth_, depth);
}

Status SpillManager::ChargeDisk(std::size_t bytes) {
  std::size_t total = AtomicSaturatingAdd(&bytes_written_, bytes);
  if (total > options_.disk_budget_bytes) {
    return Status::ResourceExhausted(
        "spill disk budget exceeded (" + std::to_string(total) + " > " +
        std::to_string(options_.disk_budget_bytes) + " bytes)");
  }
  return Status::Ok();
}

Result<std::unique_ptr<SpillFile>> SpillManager::Create(bool tagged) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!run_dir_ready_) {
      std::error_code ec;
      fs::path base = options_.dir.empty() ? fs::temp_directory_path(ec)
                                           : fs::path(options_.dir);
      if (ec) {
        return Status::ResourceExhausted("spill: no temp directory: " +
                                         ec.message());
      }
      fs::path dir = base / ("htqo-spill-" + std::to_string(::getpid()) +
                             "-" + std::to_string(
                                       reinterpret_cast<uintptr_t>(this)));
      fs::create_directories(dir, ec);
      if (ec) {
        return Status::ResourceExhausted(
            "spill: cannot create spill directory " + dir.string() + ": " +
            ec.message());
      }
      run_dir_ = dir.string();
      run_dir_ready_ = true;
    }
    path = run_dir_ + "/part-" + std::to_string(next_file_id_++) + ".spill";
  }

  FaultInjector& injector = FaultInjector::Instance();
  for (std::size_t attempt = 0; attempt <= options_.retry_limit; ++attempt) {
    if (injector.ShouldFail(kFaultSiteSpillOpen)) {
      NoteRetry();
      continue;
    }
    std::FILE* f = std::fopen(path.c_str(), "wb+");
    if (f == nullptr) {
      NoteRetry();
      continue;
    }
    partitions_.fetch_add(1, std::memory_order_relaxed);
    return std::unique_ptr<SpillFile>(
        new SpillFile(this, std::move(path), f, tagged));
  }
  return Status::ResourceExhausted(
      "spill: cannot open partition file after " +
      std::to_string(options_.retry_limit + 1) + " attempts (site spill.open)");
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
}

Status SpillFile::Append(uint64_t tag, std::span<const Value> row) {
  HTQO_DCHECK(tagged_);
  buffer_.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
  return AppendRow(row);
}

Status SpillFile::Append(std::span<const Value> row) {
  HTQO_DCHECK(!tagged_);
  return AppendRow(row);
}

Status SpillFile::AppendRow(std::span<const Value> row) {
  HTQO_DCHECK(!finished_);
  for (const Value& v : row) EncodeValue(v, &buffer_);
  ++rows_;
  if (buffer_.size() >= manager_->options().write_buffer_bytes) {
    return Flush();
  }
  return Status::Ok();
}

Status SpillFile::Flush() {
  if (buffer_.empty()) return Status::Ok();
  // Each flush lands as one self-verifying page — size, FNV-1a checksum,
  // payload — so ReadBack can tell a torn or bit-flipped partition from a
  // clean one instead of decoding garbage.
  const uint64_t payload_size = buffer_.size();
  const uint64_t checksum = PageChecksum(buffer_.data(), buffer_.size());
  std::string page;
  page.reserve(kPageHeaderBytes + buffer_.size());
  page.append(reinterpret_cast<const char*>(&payload_size),
              sizeof(payload_size));
  page.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  page.append(buffer_);
  // The disk budget is charged before the bytes land so a run can never
  // overshoot it by a whole buffer unobserved; this is the spill path's
  // hard kill and is not retried.
  Status budget = manager_->ChargeDisk(page.size());
  if (!budget.ok()) return budget;
  FaultInjector& injector = FaultInjector::Instance();
  const std::size_t retry_limit = manager_->options().retry_limit;
  for (std::size_t attempt = 0; attempt <= retry_limit; ++attempt) {
    if (injector.ShouldFail(kFaultSiteSpillWrite)) {
      manager_->NoteRetry();
      continue;
    }
    std::clearerr(file_);
    if (std::fseek(file_, static_cast<long>(bytes_), SEEK_SET) != 0) {
      manager_->NoteRetry();
      continue;
    }
    if (std::fwrite(page.data(), 1, page.size(), file_) != page.size()) {
      manager_->NoteRetry();
      continue;
    }
    bytes_ += page.size();
    buffer_.clear();
    return Status::Ok();
  }
  return Status::ResourceExhausted(
      "spill: write failed after " + std::to_string(retry_limit + 1) +
      " attempts (site spill.write)");
}

Status SpillFile::Finish() {
  Status s = Flush();
  if (!s.ok()) return s;
  // Push the stdio buffer to the kernel: a finished partition is readable
  // through any handle, and the page checksums guard bytes on disk, not
  // bytes parked in a userspace buffer.
  if (std::fflush(file_) != 0) {
    return Status::ResourceExhausted("spill: flush failed for " + path_);
  }
  finished_ = true;
  return Status::Ok();
}

Status SpillFile::ReadBack(Relation* out, std::vector<uint64_t>* tags) {
  HTQO_DCHECK(finished_);
  HTQO_CHECK(tagged_ == (tags != nullptr));
  FaultInjector& injector = FaultInjector::Instance();
  const std::size_t retry_limit = manager_->options().retry_limit;
  std::string raw;
  std::string payload;
  bool read_ok = false;
  Status corruption = Status::Ok();
  for (std::size_t attempt = 0; attempt <= retry_limit; ++attempt) {
    if (injector.ShouldFail(kFaultSiteSpillRead)) {
      manager_->NoteRetry();
      continue;
    }
    std::clearerr(file_);
    if (std::fseek(file_, 0, SEEK_SET) != 0) {
      manager_->NoteRetry();
      continue;
    }
    raw.resize(bytes_);
    if (std::fread(raw.data(), 1, bytes_, file_) != bytes_) {
      manager_->NoteRetry();
      continue;
    }
    // Verify every page before trusting a byte of it; a mismatch burns a
    // retry (it may be a torn concurrent read) before surfacing as the
    // persistent-corruption status.
    corruption = VerifyPages(raw, path_, &payload);
    if (!corruption.ok()) {
      manager_->NoteRetry();
      continue;
    }
    read_ok = true;
    break;
  }
  if (!read_ok) {
    if (!corruption.ok()) {
      return Status::DataLoss(corruption.message() + " after " +
                              std::to_string(retry_limit + 1) +
                              " attempts (site spill.read)");
    }
    return Status::ResourceExhausted(
        "spill: read failed after " + std::to_string(retry_limit + 1) +
        " attempts (site spill.read)");
  }
  manager_->NoteBytesRead(bytes_);

  const std::size_t arity = out->arity();
  Status alloc = out->TryReserve(rows_);
  if (!alloc.ok()) return alloc;
  if (tagged_) tags->reserve(tags->size() + rows_);
  const char* cursor = payload.data();
  const char* end = payload.data() + payload.size();
  std::vector<Value> row(arity);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (tagged_) {
      uint64_t tag;
      if (end - cursor < static_cast<std::ptrdiff_t>(sizeof(tag))) {
        return Status::Internal("spill: truncated partition file " + path_);
      }
      std::memcpy(&tag, cursor, sizeof(tag));
      cursor += sizeof(tag);
      tags->push_back(tag);
    }
    for (std::size_t c = 0; c < arity; ++c) {
      if (!DecodeValue(&cursor, end, &row[c])) {
        return Status::Internal("spill: corrupt partition file " + path_);
      }
    }
    out->AddRow(row);
  }
  return Status::Ok();
}

}  // namespace htqo
