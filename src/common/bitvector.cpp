#include "common/bitvector.hpp"

#include <algorithm>
#include <cassert>

#include "common/popcount.hpp"

namespace dfp {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t WordCount(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
}  // namespace

BitVector::BitVector(std::size_t size) : size_(size), words_(WordCount(size), 0) {}

void BitVector::Set(std::size_t i) {
    assert(i < size_);
    words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

bool BitVector::Test(std::size_t i) const {
    assert(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::Fill() {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    MaskTail();
}

void BitVector::MaskTail() {
    const std::size_t rem = size_ % kWordBits;
    if (rem != 0 && !words_.empty()) {
        words_.back() &= (std::uint64_t{1} << rem) - 1;
    }
}

std::size_t BitVector::Count() const {
    return Popcount(words_.data(), words_.size());
}

BitVector& BitVector::operator&=(const BitVector& other) {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
}

BitVector& BitVector::AndNot(const BitVector& other) {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
}

std::size_t BitVector::AndCount(const BitVector& other) const {
    assert(size_ == other.size_);
    return AndPopcount(words_.data(), other.words_.data(), words_.size());
}

std::size_t BitVector::AndNotCount(const BitVector& other) const {
    assert(size_ == other.size_);
    return AndNotPopcount(words_.data(), other.words_.data(), words_.size());
}

void BitVector::AssignAnd(const BitVector& a, const BitVector& b) {
    assert(a.size_ == b.size_);
    size_ = a.size_;
    words_.resize(a.words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] = a.words_[i] & b.words_[i];
    }
}

void BitVector::AssignAndNot(const BitVector& a, const BitVector& b) {
    assert(a.size_ == b.size_);
    size_ = a.size_;
    words_.resize(a.words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] = a.words_[i] & ~b.words_[i];
    }
}

bool BitVector::IsSubsetOf(const BitVector& other) const {
    assert(size_ == other.size_);
    return !AndNotAny(words_.data(), other.words_.data(), words_.size());
}

bool BitVector::IsDisjointWith(const BitVector& other) const {
    assert(size_ == other.size_);
    return !AndAny(words_.data(), other.words_.data(), words_.size());
}

std::vector<std::uint32_t> BitVector::ToIndices() const {
    std::vector<std::uint32_t> out;
    out.reserve(Count());
    ForEach([&out](std::uint32_t i) { out.push_back(i); });
    return out;
}

}  // namespace dfp
