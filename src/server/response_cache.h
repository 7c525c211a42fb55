// Bucket-set keyed LRU cache of encoded response frames.
//
// Why caching is sound here: a genuine term's decoys are a deterministic
// function of the bucket organization (core/session.h), so a term recurring
// within a session always produces the same co-bucket decoy set. The
// SessionClient exploits that session-consistency property by reusing the
// encoded uplink bytes for a repeated genuine-term set — re-encrypting the
// indicators would change only ciphertext randomness, not what the adversary
// learns (the observed term multiset is already identical). Identical request
// bytes imply a bit-identical response, so the server may answer from cache.
//
// The key is therefore (kind, session, payload bytes): for query frames the
// payload determines the touched bucket set and the indicator assignment, so
// this coincides with keying by the session's recurring bucket sets while
// remaining exact — two requests collide only if byte-equal, and the session
// id keeps ciphertexts under different public keys apart.
//
// Thread safety: all operations take an internal mutex; the cache is shared
// by every worker of a server batch.

#ifndef EMBELLISH_SERVER_RESPONSE_CACHE_H_
#define EMBELLISH_SERVER_RESPONSE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace embellish::server {

/// \brief Exact-match LRU cache mapping request bytes to response frames.
class ResponseCache {
 public:
  /// \brief Keeps at most `capacity` entries totalling at most
  ///        `max_total_bytes` of key + response bytes; 0 entries disables
  ///        the cache (every Get misses, Put is a no-op). Entry sizes are
  ///        attacker-controlled (the key embeds the request payload), so
  ///        the byte budget — not just the entry count — is what actually
  ///        bounds the memory a hostile client can pin; an entry larger
  ///        than the whole budget is simply not cached.
  explicit ResponseCache(size_t capacity,
                         size_t max_total_bytes = 64u << 20);

  /// \brief True when the cache can ever hold an entry; callers skip key
  ///        construction (a payload-sized copy) entirely when disabled.
  bool enabled() const { return capacity_ > 0; }

  /// \brief Builds the lookup key for a request frame. `epoch` distinguishes
  ///        cache generations that identical request bytes must not cross —
  ///        the server passes the session's registration epoch so responses
  ///        encrypted under a superseded public key are never replayed after
  ///        a re-hello. Plaintext top-k answers never touch a registered
  ///        key, so they pin both `session_id` and `epoch` to zero: one
  ///        session's entry serves every session replaying the same payload.
  ///        That path caches the response payload and rebuilds the frame per
  ///        request, because the frame header embeds the requester's session
  ///        id. (PIR answers are not cached at all: each KO-PIR query carries
  ///        fresh random residues, so its answer could hit only on a replay.)
  ///
  ///        `database_epoch` is the orthogonal second generation axis: the
  ///        IndexCatalog epoch the answer was computed against. A delta or
  ///        reshard cutover bumps it, so every answer cached under the
  ///        superseded snapshot misses naturally — without flushing entries
  ///        for other generations and without touching the
  ///        registration-epoch (re-hello) invalidation, which keeps its
  ///        existing behavior.
  static std::string MakeKey(uint8_t kind, uint64_t session_id, uint64_t epoch,
                             uint64_t database_epoch,
                             const std::vector<uint8_t>& payload);

  /// \brief On hit, copies the cached response frame into `out` and marks
  ///        the entry most-recently used.
  bool Get(const std::string& key, std::vector<uint8_t>* out);

  /// \brief Inserts (or refreshes) an entry, evicting the least-recently
  ///        used one when over capacity.
  void Put(const std::string& key, std::vector<uint8_t> response);

  size_t size() const;
  size_t total_bytes() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  using Entry = std::pair<std::string, std::vector<uint8_t>>;

  // The key string is resident twice (list entry + index map key), so it
  // counts double against the byte budget.
  static size_t EntryBytes(const Entry& e) {
    return 2 * e.first.size() + e.second.size();
  }
  void EvictOverBudget();  // requires mu_ held

  const size_t capacity_;
  const size_t max_total_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t total_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_RESPONSE_CACHE_H_
