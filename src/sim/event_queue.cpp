#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace retcon {

namespace {

template <class K, class Before>
void
siftUp(std::vector<K> &h, std::size_t i, Before before)
{
    K k = h[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(k, h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = k;
}

template <class K, class Before>
void
siftDown(std::vector<K> &h, std::size_t i, Before before)
{
    const std::size_t n = h.size();
    K k = h[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(h[child + 1], h[child]))
            ++child;
        if (!before(h[child], k))
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = k;
}

template <class K, class Before>
void
popFront(std::vector<K> &h, Before before)
{
    h.front() = h.back();
    h.pop_back();
    if (!h.empty())
        siftDown(h, 0, before);
}

constexpr auto byTime = [](const auto &a, const auto &b) {
    return a.before(b);
};
constexpr auto bySeq = [](const auto &a, const auto &b) {
    return a.seq < b.seq;
};

} // namespace

EventHandle
EventQueue::schedule(Cycle when, Callback cb)
{
    return scheduleSeq(when, _nextSeq++, std::move(cb));
}

EventHandle
EventQueue::scheduleSeq(Cycle when, std::uint64_t seq, Callback cb)
{
    sim_assert(when >= _now, "scheduling into the past");
    std::uint32_t slot = allocSlot();
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    pushPending(Key{when, seq, slot, s.gen});
    ++_live;
    return EventHandle{(std::uint64_t(s.gen) << kSlotBits) | slot};
}

EventHandle
EventQueue::rearmCurrentSeq(Cycle when, std::uint64_t seq)
{
    sim_assert(_running.slot != kNoSlot, "re-arm outside a running event");
    sim_assert(_rearmed == kNoSlot, "running event re-armed twice");
    sim_assert(when >= _now, "scheduling into the past");
    // The running slot keeps the callback, unless its generation
    // wrapped as it fired: then the slot is dead and a fresh one takes
    // the callback when the run ends.
    std::uint32_t slot = _running.slot;
    if (_slots[slot].gen == 0)
        slot = allocSlot();
    _rearmed = slot;
    const Key k{when, seq, slot, _slots[slot].gen};
    if (!_heap.empty() && _heap.front().slot == _running.slot &&
        _heap.front().gen == _running.gen) {
        // The fired key is still the pending top: re-key it in place.
        _heap.front() = k;
        siftDown(_heap, 0, byTime);
    } else {
        pushPending(k);
    }
    ++_live;
    return EventHandle{(std::uint64_t(k.gen) << kSlotBits) | slot};
}

std::uint32_t
EventQueue::allocSlot()
{
    if (!_free.empty()) {
        std::uint32_t slot = _free.back();
        _free.pop_back();
        return slot;
    }
    auto slot = static_cast<std::uint32_t>(_slots.size());
    sim_assert(slot < kMaxSlots, "event slots exhausted");
    _slots.emplace_back();
    return slot;
}

void
EventQueue::pushPending(const Key &k)
{
    _heap.push_back(k);
    siftUp(_heap, _heap.size() - 1, byTime);
}

void
EventQueue::retire(std::uint32_t slot)
{
    Slot &s = _slots[slot];
    s.cb = nullptr;
    ++s.gen;
    release(slot);
}

void
EventQueue::popTop()
{
    popFront(_heap, byTime);
}

EventQueue::Key
EventQueue::takeReady()
{
    Key k = _ready.front();
    popFront(_ready, bySeq);
    k.when = _floor;
    _slots[k.slot].ready = false;
    --_readyLive;
    return k;
}

bool
EventQueue::pruneTop()
{
    while (!_heap.empty() && stale(_heap.front()))
        popTop();
    return !_heap.empty();
}

bool
EventQueue::readyLeads()
{
    while (!_ready.empty() && stale(_ready.front()))
        popFront(_ready, bySeq);
    if (_ready.empty())
        return false;
    if (!pruneTop())
        return true;
    // A ready key reads as (floor, seq).
    const Key &p = _heap.front();
    return _floor < p.when ||
           (_floor == p.when && _ready.front().seq < p.seq);
}

bool
EventQueue::peekNext(Cycle &when, std::uint64_t &seq)
{
    if (!_ready.empty() && readyLeads()) {
        when = _floor;
        seq = _ready.front().seq;
        return true;
    }
    if (!pruneTop())
        return false;
    when = _heap.front().when;
    seq = _heap.front().seq;
    return true;
}

void
EventQueue::deferNext(Cycle new_when)
{
    if (!_ready.empty() && readyLeads()) {
        // One slip out of the ready heap: back to the pending heap.
        sim_assert(new_when >= _floor, "deferring into the past");
        Key k = takeReady();
        k.when = new_when;
        pushPending(k);
        return;
    }
    sim_assert(!_heap.empty(), "deferNext on a drained queue");
    Key &top = _heap.front();
    sim_assert(new_when >= top.when, "deferring into the past");
    // A later time only moves the key down the heap.
    top.when = new_when;
    siftDown(_heap, 0, byTime);
}

void
EventQueue::raiseFloor(Cycle floor)
{
    _floor = std::max(_floor, floor);
    while (!_heap.empty() && _heap.front().when <= floor) {
        const Key k = _heap.front();
        popTop();
        if (stale(k))
            continue;
        _slots[k.slot].ready = true;
        ++_readyLive;
        _ready.push_back(k);
        siftUp(_ready, _ready.size() - 1, bySeq);
    }
}

std::size_t
EventQueue::slipDue(Cycle when)
{
    // A floor of when + 1 means this shard already slipped cycle `when`
    // as a batch; what is due there now was scheduled since, and the
    // ready keys already sitting at when + 1 are not slipped again.
    sim_assert(_floor <= when + 1, "slipping a cycle the floor passed");
    const std::size_t already = _floor > when ? _readyLive : 0;
    raiseFloor(when);
    const std::size_t slipped = _readyLive - already;
    raiseFloor(when + 1);
    return slipped;
}

void
EventQueue::cancel(EventHandle h)
{
    if (!h.valid())
        return;
    auto slot = static_cast<std::uint32_t>(h.id & (kMaxSlots - 1));
    auto gen = static_cast<std::uint32_t>(h.id >> kSlotBits);
    if (slot >= _slots.size() || _slots[slot].gen != gen)
        return; // Already fired or cancelled.
    Slot &s = _slots[slot];
    if (s.ready) {
        s.ready = false;
        --_readyLive;
    }
    --_live;
    if (slot == _rearmed) {
        // The running callback's own re-arm: step() still holds the
        // callback and drops it when the run ends. Only a fresh slot
        // (the wrapped-generation case) is free to go now.
        _rearmed = kNoSlot;
        ++s.gen;
        if (slot != _running.slot)
            release(slot);
        return;
    }
    retire(slot);
}

bool
EventQueue::step()
{
    sim_assert(_running.slot == kNoSlot, "step() from inside a callback");
    Key k{};
    if (!_ready.empty() && readyLeads()) {
        k = takeReady();
    } else {
        if (!pruneTop())
            return false;
        // The key stays at the top while its callback runs, so a
        // re-arm can re-key it in place.
        k = _heap.front();
    }
    sim_assert(k.when >= _now, "event heap out of order");
    _now = k.when;
    // Take the callback out before running it: it may grow the slab.
    // The slot itself stays off the free list until the run ends.
    Slot &s = _slots[k.slot];
    Callback cb = std::move(s.cb);
    ++s.gen; // Handles naming the fired event go stale.
    --_live;
    ++_executed;
    _running = k;
    cb();
    if (_rearmed != kNoSlot) {
        _slots[_rearmed].cb = std::move(cb);
        if (_rearmed != k.slot)
            release(k.slot);
    } else {
        release(k.slot);
    }
    if (!_heap.empty() && _heap.front().slot == k.slot &&
        _heap.front().gen == k.gen)
        popTop(); // Not re-armed in place: the fired key leaves.
    _running.slot = kNoSlot;
    _rearmed = kNoSlot;
    return true;
}

Cycle
EventQueue::run(Cycle maxCycles)
{
    Cycle when;
    std::uint64_t seq;
    while (peekNext(when, seq) && when <= maxCycles)
        step();
    return _now;
}

} // namespace retcon
