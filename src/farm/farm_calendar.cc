#include "farm/farm_calendar.hh"

#include <bit>

#include "util/error.hh"

namespace sleepscale {

namespace {

constexpr std::size_t wordBits = 64;

std::size_t
wordsFor(std::size_t bits)
{
    return (bits + wordBits - 1) / wordBits;
}

} // namespace

IdleSet::IdleSet(std::size_t size, bool full)
    : _size(size)
{
    // Build levels until one word summarizes everything; a single-word
    // top level makes lowest() a straight descent.
    std::size_t bits = size;
    do {
        const std::size_t words = wordsFor(std::max<std::size_t>(bits, 1));
        _levels.emplace_back(words, 0);
        bits = words;
    } while (bits > 1);

    if (full) {
        for (std::size_t i = 0; i < size; ++i)
            insert(i);
    }
}

void
IdleSet::insert(std::size_t index)
{
    fatalIf(index >= _size, "IdleSet::insert: index out of range");
    std::uint64_t &leaf = _levels[0][index / wordBits];
    const std::uint64_t bit = std::uint64_t{1} << (index % wordBits);
    if (leaf & bit)
        return;
    leaf |= bit;
    ++_members;
    std::size_t word = index / wordBits;
    for (std::size_t level = 1; level < _levels.size(); ++level) {
        _levels[level][word / wordBits] |=
            std::uint64_t{1} << (word % wordBits);
        word /= wordBits;
    }
}

void
IdleSet::erase(std::size_t index)
{
    fatalIf(index >= _size, "IdleSet::erase: index out of range");
    std::uint64_t &leaf = _levels[0][index / wordBits];
    const std::uint64_t bit = std::uint64_t{1} << (index % wordBits);
    if (!(leaf & bit))
        return;
    leaf &= ~bit;
    --_members;
    std::size_t word = index / wordBits;
    for (std::size_t level = 1; level < _levels.size(); ++level) {
        if (_levels[level - 1][word] != 0)
            break; // Siblings keep the summary bit alive.
        _levels[level][word / wordBits] &=
            ~(std::uint64_t{1} << (word % wordBits));
        word /= wordBits;
    }
}

bool
IdleSet::contains(std::size_t index) const
{
    fatalIf(index >= _size, "IdleSet::contains: index out of range");
    return (_levels[0][index / wordBits]
            >> (index % wordBits)) & std::uint64_t{1};
}

std::size_t
IdleSet::lowest() const
{
    if (_members == 0)
        return _size;
    // Descend from the single-word top level, taking the lowest set bit
    // at each level to reach the lowest leaf bit.
    std::size_t word = 0;
    for (std::size_t level = _levels.size(); level-- > 0;) {
        const std::uint64_t bits = _levels[level][word];
        fatalIf(bits == 0, "IdleSet::lowest: summary bit out of sync");
        word = word * wordBits
               + static_cast<std::size_t>(std::countr_zero(bits));
    }
    return word;
}

RankedSet::RankedSet(std::size_t size, bool full)
    : _size(size), _words(wordsFor(size), 0), _tree(_words.size() + 1, 0)
{
    if (full) {
        for (std::size_t i = 0; i < size; ++i)
            insert(i);
    }
}

void
RankedSet::adjust(std::size_t word, std::uint32_t delta)
{
    for (std::size_t i = word + 1; i < _tree.size(); i += i & (~i + 1))
        _tree[i] += delta;
}

void
RankedSet::insert(std::size_t index)
{
    fatalIf(index >= _size, "RankedSet::insert: index out of range");
    std::uint64_t &word = _words[index / wordBits];
    const std::uint64_t bit = std::uint64_t{1} << (index % wordBits);
    if (word & bit)
        return;
    word |= bit;
    ++_members;
    adjust(index / wordBits, 1);
}

void
RankedSet::erase(std::size_t index)
{
    fatalIf(index >= _size, "RankedSet::erase: index out of range");
    std::uint64_t &word = _words[index / wordBits];
    const std::uint64_t bit = std::uint64_t{1} << (index % wordBits);
    if (!(word & bit))
        return;
    word &= ~bit;
    --_members;
    adjust(index / wordBits, ~std::uint32_t{0});
}

std::size_t
RankedSet::rank(std::size_t index) const
{
    if (_members == _size)
        return index;
    const std::size_t word = index / wordBits;
    std::size_t below = 0;
    for (std::size_t i = word; i > 0; i -= i & (~i + 1))
        below += _tree[i];
    if (index % wordBits != 0) {
        const std::uint64_t mask =
            (std::uint64_t{1} << (index % wordBits)) - 1;
        below += static_cast<std::size_t>(
            std::popcount(_words[word] & mask));
    }
    return below;
}

std::size_t
RankedSet::select(std::size_t k) const
{
    if (_members == _size)
        return k;
    fatalIf(k >= _members, "RankedSet::select: rank out of range");
    // Fenwick descent to the word holding the k-th member: `word` ends
    // as the number of whole words whose members all rank below k.
    std::size_t word = 0;
    std::size_t rest = k;
    for (std::size_t step = std::bit_floor(_words.size()); step > 0;
         step >>= 1) {
        const std::size_t next = word + step;
        if (next < _tree.size() && _tree[next] <= rest) {
            word = next;
            rest -= _tree[next];
        }
    }
    // Binary search for the rest-th set bit inside that word.
    std::uint64_t bits = _words[word];
    std::size_t offset = 0;
    for (unsigned width = wordBits / 2; width > 0; width /= 2) {
        const std::size_t low = static_cast<std::size_t>(std::popcount(
            bits & ((std::uint64_t{1} << width) - 1)));
        if (rest >= low) {
            rest -= low;
            bits >>= width;
            offset += width;
        }
    }
    return word * wordBits + offset;
}

} // namespace sleepscale
