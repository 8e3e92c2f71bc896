#include "sim/event_queue.hpp"

#include <utility>

#include "sim/logging.hpp"

namespace retcon {

EventHandle
EventQueue::schedule(Cycle when, Callback cb)
{
    return scheduleSeq(when, _nextSeq++, std::move(cb));
}

EventHandle
EventQueue::scheduleSeq(Cycle when, std::uint64_t seq, Callback cb)
{
    sim_assert(when >= _now, "scheduling into the past");
    auto slot = static_cast<std::uint32_t>(_slots.size());
    if (!_free.empty()) {
        slot = _free.back();
        _free.pop_back();
    } else {
        sim_assert(slot < kMaxSlots, "event slots exhausted");
        _slots.emplace_back();
    }
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    _heap.push_back(Key{when, seq, slot, s.gen});
    siftUp(_heap.size() - 1);
    ++_live;
    return EventHandle{(std::uint64_t(s.gen) << kSlotBits) | slot};
}

void
EventQueue::retire(std::uint32_t slot)
{
    Slot &s = _slots[slot];
    s.cb = nullptr;
    // A slot whose generation would wrap is never reused, so no handle
    // or heap key can ever alias a later event.
    if (++s.gen != 0)
        _free.push_back(slot);
}

void
EventQueue::siftUp(std::size_t i)
{
    Key k = _heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!k.before(_heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = k;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = _heap.size();
    Key k = _heap[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && _heap[child + 1].before(_heap[child]))
            ++child;
        if (!_heap[child].before(k))
            break;
        _heap[i] = _heap[child];
        i = child;
    }
    _heap[i] = k;
}

void
EventQueue::popTop()
{
    _heap.front() = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0);
}

bool
EventQueue::pruneTop()
{
    while (!_heap.empty() && stale(_heap.front()))
        popTop();
    return !_heap.empty();
}

bool
EventQueue::peekNext(Cycle &when, std::uint64_t &seq)
{
    if (!pruneTop())
        return false;
    when = _heap.front().when;
    seq = _heap.front().seq;
    return true;
}

void
EventQueue::deferNext(Cycle new_when)
{
    sim_assert(!_heap.empty(), "deferNext on a drained queue");
    Key &top = _heap.front();
    sim_assert(new_when >= top.when, "deferring into the past");
    // A later time only moves the key down the heap.
    top.when = new_when;
    siftDown(0);
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
    retire(slot);
    --_live;
}

bool
EventQueue::step()
{
    if (!pruneTop())
        return false;
    const Key k = _heap.front();
    popTop();
    sim_assert(k.when >= _now, "event heap out of order");
    _now = k.when;
    // Take the callback out before running it: it may schedule events
    // that reuse this slot or grow the slab.
    Callback cb = std::move(_slots[k.slot].cb);
    retire(k.slot);
    --_live;
    ++_executed;
    cb();
    return true;
}

Cycle
EventQueue::run(Cycle maxCycles)
{
    while (pruneTop() && _heap.front().when <= maxCycles)
        step();
    return _now;
}

} // namespace retcon
