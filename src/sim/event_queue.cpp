#include "sim/event_queue.hpp"

#include <algorithm>

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
    std::uint64_t id = _nextId++;
    _heap.push(Entry{when, seq, id, std::move(cb)});
    ++_live;
    return EventHandle{id};
}

bool
EventQueue::peekNext(Cycle &when, std::uint64_t &seq)
{
    while (!_heap.empty() && isCancelled(_heap.top().id)) {
        _cancelled.erase(std::find(_cancelled.begin(), _cancelled.end(),
                                   _heap.top().id));
        _heap.pop();
    }
    if (_heap.empty())
        return false;
    when = _heap.top().when;
    seq = _heap.top().seq;
    return true;
}

void
EventQueue::deferNext(Cycle new_when)
{
    sim_assert(!_heap.empty(), "deferNext on a drained queue");
    // Move out of the heap top: safe because the entry is popped
    // immediately after.
    Entry e = std::move(const_cast<Entry &>(_heap.top()));
    _heap.pop();
    sim_assert(new_when >= e.when, "deferring into the past");
    e.when = new_when;
    _heap.push(std::move(e));
}

void
EventQueue::cancel(EventHandle h)
{
    if (!h.valid())
        return;
    if (isCancelled(h.id))
        return;
    _cancelled.push_back(h.id);
    if (_live > 0)
        --_live;
}

bool
EventQueue::isCancelled(std::uint64_t id) const
{
    return std::find(_cancelled.begin(), _cancelled.end(), id) !=
           _cancelled.end();
}

bool
EventQueue::step()
{
    while (!_heap.empty()) {
        // Move out of the heap top (the entry is popped right away);
        // avoids copying the callback closure on every event.
        Entry e = std::move(const_cast<Entry &>(_heap.top()));
        _heap.pop();
        if (isCancelled(e.id)) {
            _cancelled.erase(
                std::find(_cancelled.begin(), _cancelled.end(), e.id));
            continue;
        }
        sim_assert(e.when >= _now, "event heap out of order");
        _now = e.when;
        --_live;
        ++_executed;
        e.cb();
        return true;
    }
    return false;
}

Cycle
EventQueue::run(Cycle maxCycles)
{
    while (!_heap.empty()) {
        if (_heap.top().when > maxCycles && !isCancelled(_heap.top().id))
            break;
        if (!step())
            break;
    }
    return _now;
}

} // namespace retcon
