// Seeded single-byte damage for the parser mutation tests: every reader
// of outside input must either load a mutant or throw
// std::runtime_error, never crash or read out of bounds.
#pragma once

#include <cstddef>
#include <string>

#include "rng/xoshiro.hpp"

namespace sci::fuzz {

inline constexpr int kMutationKinds = 3;

/// Damages one byte of non-empty `bytes` in place and returns its
/// offset. Kind 0 flips some bits of the byte, kind 1 inserts a random
/// byte before it, kind 2 deletes it.
inline std::size_t mutate(std::string& bytes, int kind, rng::Xoshiro256& gen) {
  const auto below = [&gen](std::size_t n) { return static_cast<std::size_t>(gen() % n); };
  const std::size_t at = below(bytes.size());
  if (kind == 0) {
    bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(1 + below(255)));
  } else if (kind == 1) {
    bytes.insert(at, 1, static_cast<char>(below(256)));
  } else {
    bytes.erase(at, 1);
  }
  return at;
}

}  // namespace sci::fuzz
