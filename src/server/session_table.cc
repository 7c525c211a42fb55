#include "server/session_table.h"

namespace embellish::server {

SessionTable::Entry SessionTable::Find(uint64_t session_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? Entry{} : it->second;
}

void SessionTable::Touch(uint64_t session_id, uint64_t now) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end() && it->second.last_seen != nullptr) {
    it->second.last_seen->store(now, std::memory_order_relaxed);
  }
}

size_t SessionTable::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::pair<uint64_t, std::shared_ptr<const crypto::BenalohPublicKey>>>
SessionTable::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<
      std::pair<uint64_t, std::shared_ptr<const crypto::BenalohPublicKey>>>
      out;
  out.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) {
    out.emplace_back(id, entry.pk);
  }
  return out;
}

void SessionTable::SweepLocked(uint64_t now) {
  if (idle_frames_ == 0) return;
  uint64_t swept = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const uint64_t seen =
        it->second.last_seen != nullptr
            ? it->second.last_seen->load(std::memory_order_relaxed)
            : 0;
    // seen > now is possible: a concurrent Touch may have stored a
    // timestamp read from the clock after this sweep's `now`. Such an
    // entry is maximally fresh, not 2^64 frames idle — never sweep it.
    if (seen < now && now - seen > idle_frames_) {
      it = sessions_.erase(it);  // releases the (possibly superseded) key
      ++swept;
    } else {
      ++it;
    }
  }
  if (swept > 0) expired_.fetch_add(swept, std::memory_order_relaxed);
}

bool SessionTable::Register(
    uint64_t session_id, std::shared_ptr<const crypto::BenalohPublicKey> pk,
    uint64_t now) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (idle_frames_ > 0) {
    const bool stride_due = ++since_sweep_ >= kSweepStride;
    const bool at_capacity = sessions_.size() >= max_sessions_ &&
                             sessions_.count(session_id) == 0;
    if (stride_due || at_capacity) {
      SweepLocked(now);
      since_sweep_ = 0;
    }
  }
  if (sessions_.count(session_id) == 0 &&
      sessions_.size() >= max_sessions_) {
    return false;
  }
  sessions_[session_id] =
      Entry{std::move(pk), std::make_shared<std::atomic<uint64_t>>(now)};
  return true;
}

}  // namespace embellish::server
