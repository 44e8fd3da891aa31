#include "relational/join_hash_table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/hash.h"

namespace wiclean::relational {

namespace {

constexpr uint64_t kHashSeed = 1469598103934665603ULL;  // FNV-1a offset basis
constexpr size_t kHashBlockRows = 4096;

size_t PowerOfTwoCapacity(size_t rows) {
  // Load factor <= 0.5 keeps linear-probe runs short.
  size_t capacity = 8;
  while (capacity < rows * 2) capacity *= 2;
  return capacity;
}

}  // namespace

void HashRowsForKeys(const Table& t, const std::vector<size_t>& cols,
                     std::vector<uint64_t>* hashes,
                     std::vector<uint8_t>* valid) {
  const size_t n = t.num_rows();
  hashes->assign(n, kHashSeed);
  if (valid != nullptr) valid->assign(n, 1);
  // Blocks of rows, all key columns per block: a block's hashes stay in
  // cache across the column passes.
  for (size_t begin = 0; begin < n; begin += kHashBlockRows) {
    const size_t end = std::min(n, begin + kHashBlockRows);
    for (size_t c : cols) {
      const Column& col = t.column(c);
      const uint8_t* ok = col.validity().data();
      const int64_t* data = col.int64_data().data();
      for (size_t r = begin; r < end; ++r) {
        uint64_t cell = ok[r] ? MixInt64(data[r]) : kNullCellHash;
        (*hashes)[r] = HashCombine((*hashes)[r], cell);
      }
      if (valid != nullptr) {
        for (size_t r = begin; r < end; ++r) (*valid)[r] &= ok[r];
      }
    }
  }
}

void JoinHashTable::Build(const uint64_t* hashes, const uint8_t* valid,
                          size_t n) {
  WICLEAN_CHECK(n < kNoRow) << "join input exceeds 32-bit row indexing";
  const size_t capacity = PowerOfTwoCapacity(n);
  slot_hash_.assign(capacity, 0);
  slot_head_.assign(capacity, kNoRow);
  next_.assign(n, kNoRow);
  mask_ = capacity - 1;
  size_ = 0;
  // Insert in reverse row order and prepend to chains, so every chain
  // iterates in ascending row order (deterministic, nested-loop-equivalent
  // probe output).
  for (size_t i = n; i-- > 0;) {
    if (valid != nullptr && !valid[i]) continue;
    const uint64_t h = hashes[i];
    size_t pos = static_cast<size_t>(h & mask_);
    while (slot_head_[pos] != kNoRow && slot_hash_[pos] != h) {
      pos = (pos + 1) & mask_;
    }
    if (slot_head_[pos] == kNoRow) {
      slot_hash_[pos] = h;
    } else {
      next_[i] = slot_head_[pos];
    }
    slot_head_[pos] = static_cast<uint32_t>(i);
    ++size_;
  }
}

void JoinHashTable::ResetForInsert(size_t expected_rows) {
  const size_t capacity = PowerOfTwoCapacity(expected_rows);
  slot_hash_.assign(capacity, 0);
  slot_head_.assign(capacity, kNoRow);
  next_.clear();
  mask_ = capacity - 1;
  size_ = 0;
}

void JoinHashTable::Insert(uint64_t hash, uint32_t row) {
  WICLEAN_CHECK(row == next_.size())
      << "incremental inserts must arrive in row order";
  if ((size_ + 1) * 2 > slot_head_.size()) Rehash(slot_head_.size() * 2);
  next_.push_back(kNoRow);
  size_t pos = static_cast<size_t>(hash & mask_);
  while (slot_head_[pos] != kNoRow && slot_hash_[pos] != hash) {
    pos = (pos + 1) & mask_;
  }
  if (slot_head_[pos] == kNoRow) {
    slot_hash_[pos] = hash;
  } else {
    next_[row] = slot_head_[pos];
  }
  slot_head_[pos] = row;
  ++size_;
}

void JoinHashTable::Rehash(size_t capacity) {
  std::vector<uint64_t> old_hash = std::move(slot_hash_);
  std::vector<uint32_t> old_head = std::move(slot_head_);
  slot_hash_.assign(capacity, 0);
  slot_head_.assign(capacity, kNoRow);
  mask_ = capacity - 1;
  // One slot per distinct hash; chains through next_ stay valid as-is.
  for (size_t i = 0; i < old_head.size(); ++i) {
    if (old_head[i] == kNoRow) continue;
    size_t pos = static_cast<size_t>(old_hash[i] & mask_);
    while (slot_head_[pos] != kNoRow) pos = (pos + 1) & mask_;
    slot_hash_[pos] = old_hash[i];
    slot_head_[pos] = old_head[i];
  }
}

}  // namespace wiclean::relational
