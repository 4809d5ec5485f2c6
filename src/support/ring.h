/**
 * @file
 * A FIFO ring buffer for the simulator's queues.
 *
 * A Ring is sized once, from the depth its owner configures, and then
 * pushes and pops move two indices over one array: no allocation per
 * element, unlike std::deque. A push that finds the ring full doubles
 * it, so a queue that is allowed to outgrow its configured depth (the
 * simulator's in-flight reads, which no depth caps) still works; a
 * queue that is checked against its depth never grows.
 */

#ifndef WMSTREAM_SUPPORT_RING_H
#define WMSTREAM_SUPPORT_RING_H

#include <cstddef>
#include <memory>

namespace wmstream::support {

template <class T>
class Ring
{
  public:
    /** Make room for at least @p n elements (rounded up to a power of 2). */
    void
    reserve(size_t n)
    {
        size_t cap = 1;
        while (cap < n)
            cap *= 2;
        if (cap <= cap_)
            return;
        auto buf = std::make_unique<T[]>(cap);
        for (size_t k = 0; k < n_; ++k)
            buf[k] = std::move((*this)[k]);
        buf_ = std::move(buf);
        cap_ = cap;
        head_ = 0;
    }

    bool empty() const { return n_ == 0; }
    size_t size() const { return n_; }

    T &front() { return buf_[head_]; }
    /** The @p k-th element from the front. */
    T &operator[](size_t k) { return buf_[(head_ + k) & (cap_ - 1)]; }
    const T &operator[](size_t k) const
    {
        return buf_[(head_ + k) & (cap_ - 1)];
    }

    void
    push_back(const T &x)
    {
        if (n_ == cap_)
            reserve(n_ + 1);
        (*this)[n_++] = x;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (cap_ - 1);
        --n_;
    }

    void clear() { head_ = n_ = 0; }

    /** Front-to-back iteration. */
    class const_iterator
    {
      public:
        const_iterator(const Ring *r, size_t k) : r_(r), k_(k) {}
        const T &operator*() const { return (*r_)[k_]; }
        const_iterator &operator++() { ++k_; return *this; }
        bool operator!=(const const_iterator &o) const { return k_ != o.k_; }

      private:
        const Ring *r_;
        size_t k_;
    };
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, n_}; }

  private:
    std::unique_ptr<T[]> buf_;
    size_t cap_ = 0; ///< a power of 2, or 0 before the first reserve
    size_t head_ = 0;
    size_t n_ = 0;
};

} // namespace wmstream::support

#endif // WMSTREAM_SUPPORT_RING_H
