// The repo's one byte hash and one mixing primitive.
//
// fnv1a64 is 64-bit FNV-1a (offset 0xcbf29ce484222325, prime
// 0x100000001b3): every digest (checkpoint state, service responses,
// cache keys), audit seed and commitment in the repo hashes bytes with
// it. mix64 is the splitmix64 finalizer that seed derivations and ring
// placement put on top. Neither is cryptographic.

#pragma once

#include <cstdint>
#include <string_view>

namespace shlcp {

/// splitmix64 finalizer: bijective avalanche mix. This is the one mixing
/// primitive every seed-derivation scheme in the repo builds on (fault
/// plans, chaos plans, retry backoff, vnode placement, interactive
/// commitments); having it here keeps the derivations auditable in one
/// place instead of re-implemented per subsystem.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 64-bit FNV-1a over `bytes`.
constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace shlcp
