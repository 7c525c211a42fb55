// A small deterministic mutation runner for wire decoders.
//
// A decoder fed hostile bytes must either decode them or refuse them with
// Corruption: never crash, read out of bounds, allocate by an unchecked
// count, or fail with another status. The runner derives inputs from real
// encodings with the mutations that break length-prefixed layouts: every
// truncation, every single-bit flip, each length or count field set to 0,
// to its maximum and to its true value +-1, and splices of two encodings.
// It runs each through the decoder and reports every other outcome as a
// test failure naming the mutation. Run it under ASan and UBSan (ctest runs
// it in the sanitizer job) to catch what does not show as a wrong status.

#ifndef EMBELLISH_TESTS_MUTATION_RUNNER_H_
#define EMBELLISH_TESTS_MUTATION_RUNNER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace embellish::testutil {

/// \brief A big-endian unsigned field of an encoding: `width` bytes (1 to
///        8) at byte `offset`.
struct WireField {
  const char* name;
  size_t offset;
  size_t width;
};

class MutationRunner {
 public:
  using Bytes = std::vector<uint8_t>;

  /// \brief `decode` returns the decoder's status on its input.
  explicit MutationRunner(std::function<Status(const Bytes&)> decode)
      : decode_(std::move(decode)) {}

  /// \brief Every proper prefix of `input`, the empty one included.
  void Truncations(const Bytes& input) {
    for (size_t len = 0; len < input.size(); ++len) {
      Run(Bytes(input.begin(), input.begin() + static_cast<long>(len)),
          "truncated to " + std::to_string(len) + " bytes");
    }
  }

  /// \brief Every single-bit flip in bytes [begin, end) of `input`.
  void BitFlips(const Bytes& input, size_t begin = 0,
                size_t end = SIZE_MAX) {
    Bytes mutated = input;
    for (size_t i = begin; i < std::min(end, input.size()); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        mutated[i] ^= static_cast<uint8_t>(1u << bit);
        Run(mutated, "bit " + std::to_string(bit) + " of byte " +
                         std::to_string(i) + " flipped");
        mutated[i] = input[i];
      }
    }
  }

  /// \brief `field` set to 0, to its maximum, to its true value +-1
  ///        (wrapping within the field) and to each of `extra` (a decoder's
  ///        own bounds, say).
  void FieldValues(const Bytes& input, const WireField& field,
                   std::initializer_list<uint64_t> extra = {}) {
    if (field.offset + field.width > input.size()) {
      ADD_FAILURE() << field.name << " lies past the input's end";
      return;
    }
    const uint64_t max =
        field.width >= 8 ? UINT64_MAX : (uint64_t{1} << (8 * field.width)) - 1;
    uint64_t value = 0;
    for (size_t i = 0; i < field.width; ++i) {
      value = (value << 8) | input[field.offset + i];
    }
    std::vector<uint64_t> values = {uint64_t{0}, max, (value + 1) & max,
                                    (value - 1) & max};
    values.insert(values.end(), extra.begin(), extra.end());
    for (uint64_t v : values) {
      Bytes mutated = input;
      for (size_t i = 0; i < field.width; ++i) {
        mutated[field.offset + i] =
            static_cast<uint8_t>(v >> (8 * (field.width - 1 - i)));
      }
      Run(mutated, std::string(field.name) + " set to " + std::to_string(v));
    }
  }

  /// \brief a[0, i) followed by b[j, end) for every i and j that are
  ///        multiples of `stride`, plus each input's own end.
  void Splices(const Bytes& a, const Bytes& b, size_t stride) {
    auto cuts = [stride](size_t size) {
      std::vector<size_t> at;
      for (size_t i = 0; i < size; i += stride) at.push_back(i);
      at.push_back(size);
      return at;
    };
    for (size_t i : cuts(a.size())) {
      for (size_t j : cuts(b.size())) {
        Bytes mutated(a.begin(), a.begin() + static_cast<long>(i));
        mutated.insert(mutated.end(), b.begin() + static_cast<long>(j),
                       b.end());
        Run(mutated, "a[0, " + std::to_string(i) + ") + b[" +
                         std::to_string(j) + ", end)");
      }
    }
  }

  /// \brief Inputs run so far, and how many of them decoded.
  size_t runs() const { return runs_; }
  size_t decoded() const { return decoded_; }

 private:
  void Run(const Bytes& bytes, const std::string& what) {
    ++runs_;
    const Status status = decode_(bytes);
    if (status.ok()) {
      ++decoded_;
    } else if (!status.IsCorruption()) {
      ADD_FAILURE() << what << ": " << status.ToString();
    }
  }

  std::function<Status(const Bytes&)> decode_;
  size_t runs_ = 0;
  size_t decoded_ = 0;
};

}  // namespace embellish::testutil

#endif  // EMBELLISH_TESTS_MUTATION_RUNNER_H_
