// The transcript test's helpers: what a server observes of a session's
// query traffic without its key.
//
// Section 3.1's adversary sees the bucket sets a session queries and
// nothing more (Eq. 1-2). So a session that issues one genuine-term set
// twice and a session that issues two different sets from the same buckets
// must leave transcripts the server cannot tell apart: each frame of the
// same kind and size, and the same pattern of frames that repeat another
// frame's bytes. The same holds for KO-PIR traffic, where each request asks
// for one column of a bucket.

#ifndef EMBELLISH_TESTS_TRANSCRIPT_H_
#define EMBELLISH_TESTS_TRANSCRIPT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/bucket_organization.h"
#include "crypto/pir.h"
#include "server/framing.h"
#include "server/session_client.h"

namespace embellish::testutil {

/// \brief One session's query frames and the answers to them, in order.
struct Transcript {
  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> responses;
};

/// \brief Genuine terms a1 and a2 from one bucket, b1 and b2 from another.
///        a1 and b1 are indexed terms, so the queries match documents.
struct TwoBucketTerms {
  wordnet::TermId a1 = 0, a2 = 0, b1 = 0, b2 = 0;
};

inline TwoBucketTerms PickTwoBucketTerms(
    const std::vector<wordnet::TermId>& indexed,
    const core::BucketOrganization& org) {
  TwoBucketTerms out;
  size_t bucket_a = SIZE_MAX;
  for (wordnet::TermId t : indexed) {
    auto where = org.Locate(t);
    if (!where.ok() || where->bucket == bucket_a) continue;
    const std::vector<wordnet::TermId>& members = org.bucket(where->bucket);
    if (members.size() < 2) continue;
    const wordnet::TermId other = members[0] == t ? members[1] : members[0];
    if (bucket_a == SIZE_MAX) {
      bucket_a = where->bucket;
      out.a1 = t;
      out.a2 = other;
    } else {
      out.b1 = t;
      out.b2 = other;
      return out;
    }
  }
  ADD_FAILURE() << "no two buckets with two members each";
  return out;
}

/// \brief The two transcripts' requests: session `a` issues {a1, b1} twice,
///        session `b` issues {a1, b1} and then {a2, b2}. Answers are left
///        to the caller.
inline std::pair<Transcript, Transcript> RepeatedAndDistinctQueries(
    server::SessionClient& a, server::SessionClient& b,
    const TwoBucketTerms& t) {
  std::pair<Transcript, Transcript> out;
  auto issue = [](server::SessionClient& client,
                  std::vector<wordnet::TermId> genuine, Transcript* into) {
    auto request = client.QueryFrame(genuine);
    EXPECT_TRUE(request.ok()) << request.status().ToString();
    into->requests.push_back(request.ok() ? std::move(*request)
                                          : std::vector<uint8_t>{});
  };
  issue(a, {t.a1, t.b1}, &out.first);
  issue(a, {t.a1, t.b1}, &out.first);
  issue(b, {t.a1, t.b1}, &out.second);
  issue(b, {t.a2, t.b2}, &out.second);
  return out;
}

/// \brief The PIR transcripts' requests: session `a_id` asks for the columns
///        of a1, b1, a1, b1 under client `a`'s modulus, and session `b_id`
///        for a1, b1, a2, b2 under `b`'s. Each request is a fresh KO-PIR
///        query addressed to the term's bucket. Answers are left to the
///        caller.
inline std::pair<Transcript, Transcript> RepeatedAndDistinctPirQueries(
    uint64_t a_id, const crypto::PirClient& a, uint64_t b_id,
    const crypto::PirClient& b, const core::BucketOrganization& org,
    const TwoBucketTerms& t, Rng* rng) {
  std::pair<Transcript, Transcript> out;
  auto issue = [&](uint64_t session_id, const crypto::PirClient& client,
                   wordnet::TermId term, Transcript* into) {
    std::vector<uint8_t> request;
    auto where = org.Locate(term);
    EXPECT_TRUE(where.ok()) << where.status().ToString();
    if (where.ok()) {
      auto query = client.BuildQuery(
          where->slot, org.bucket(where->bucket).size(), rng);
      EXPECT_TRUE(query.ok()) << query.status().ToString();
      if (query.ok()) {
        request = server::EncodeFrame(
            server::FrameKind::kPirQuery, session_id,
            server::EncodePirQuery(where->bucket, *query));
      }
    }
    into->requests.push_back(std::move(request));
  };
  for (wordnet::TermId term : {t.a1, t.b1, t.a1, t.b1}) {
    issue(a_id, a, term, &out.first);
  }
  for (wordnet::TermId term : {t.a1, t.b1, t.a2, t.b2}) {
    issue(b_id, b, term, &out.second);
  }
  return out;
}

/// \brief The shedding case: each of `ta` and `tb`'s two requests goes out
///        in one batch behind a filler request from a third session, so an
///        admission budget of `max_inflight` sheds both sessions alike
///        (shedding takes a deterministic suffix of each batch). `filler`
///        makes a fresh filler request per batch, and `serve_batch` answers
///        a batch. Fills the transcripts' answers, checks that every shed
///        frame is the typed kBusy error under session id 0 and every other
///        one a result, and returns how many were shed.
template <typename Filler, typename ServeBatch>
uint64_t AnswerBehindFiller(Transcript* ta, Transcript* tb,
                            size_t max_inflight, Filler&& filler,
                            ServeBatch&& serve_batch) {
  uint64_t shed = 0;
  for (Transcript* transcript : {ta, tb}) {
    std::vector<std::vector<uint8_t>> responses = serve_batch(
        {filler(), transcript->requests[0], transcript->requests[1]});
    EXPECT_EQ(responses.size(), 3u);
    if (responses.size() != 3) continue;
    transcript->responses = {responses[1], responses[2]};
    // Batch position p is shed iff p >= max_inflight; request i sits at
    // position i + 1, and the filler at 0 is always answered.
    for (size_t p = 0; p < 3; ++p) {
      auto frame = server::DecodeFrame(responses[p]);
      EXPECT_TRUE(frame.ok()) << frame.status().ToString();
      if (!frame.ok()) continue;
      if (p < max_inflight) {
        EXPECT_EQ(frame->kind, server::FrameKind::kResult) << "position " << p;
        continue;
      }
      EXPECT_EQ(frame->kind, server::FrameKind::kError) << "position " << p;
      EXPECT_EQ(frame->session_id, 0u);
      Status transported;
      EXPECT_TRUE(server::DecodeError(frame->payload, &transported).ok());
      EXPECT_TRUE(transported.IsBusy()) << transported.ToString();
      ++shed;
    }
  }
  return shed;
}

/// \brief Fills `transcript`'s answers by handing each request to `serve`.
template <typename Serve>
void AnswerEach(Transcript* transcript, Serve&& serve) {
  for (const auto& request : transcript->requests) {
    transcript->responses.push_back(serve(request));
  }
}

/// \brief Each frame's (kind, size); kind -1 marks an undecodable frame.
inline std::vector<std::pair<int, size_t>> FrameShapes(
    const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<std::pair<int, size_t>> shapes;
  for (const auto& bytes : frames) {
    auto frame = server::DecodeFrame(bytes);
    shapes.emplace_back(frame.ok() ? static_cast<int>(frame->kind) : -1,
                        bytes.size());
  }
  return shapes;
}

/// \brief pattern[i] is the first index whose frame equals frame i byte for
///        byte (i itself when no earlier frame does).
inline std::vector<size_t> RepeatPattern(
    const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<size_t> pattern;
  for (size_t i = 0; i < frames.size(); ++i) {
    size_t first = i;
    for (size_t j = 0; j < i; ++j) {
      if (frames[j] == frames[i]) {
        first = j;
        break;
      }
    }
    pattern.push_back(first);
  }
  return pattern;
}

/// \brief Fails unless the server observes the same thing of `a` and `b`,
///        and neither transcript repeats a request frame.
inline void ExpectIndistinguishable(const Transcript& a, const Transcript& b) {
  std::vector<size_t> no_repeats(a.requests.size());
  for (size_t i = 0; i < no_repeats.size(); ++i) no_repeats[i] = i;
  EXPECT_EQ(RepeatPattern(a.requests), no_repeats)
      << "the first session re-sent a request frame";
  EXPECT_EQ(RepeatPattern(b.requests), no_repeats)
      << "the second session re-sent a request frame";
  EXPECT_EQ(FrameShapes(a.requests), FrameShapes(b.requests))
      << "request kinds or sizes differ";
  EXPECT_EQ(FrameShapes(a.responses), FrameShapes(b.responses))
      << "response kinds or sizes differ";
  EXPECT_EQ(RepeatPattern(a.responses), RepeatPattern(b.responses))
      << "response frames repeat in one transcript only";
}

}  // namespace embellish::testutil

#endif  // EMBELLISH_TESTS_TRANSCRIPT_H_
