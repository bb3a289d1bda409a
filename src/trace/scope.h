/**
 * @file
 * AmbientScope — RAII save/restore of a tracker's thread-local ambient
 * id (FlowScope, BootScope, ProfRestore). A null tracker is a no-op, so
 * call sites don't branch.
 */

#ifndef MIRAGE_TRACE_SCOPE_H
#define MIRAGE_TRACE_SCOPE_H

#include <utility>

namespace mirage::trace {

template <class Tracker>
class AmbientScope
{
  public:
    using Id = decltype(std::declval<Tracker &>().current());

    AmbientScope(Tracker *t, Id id) : t_(t)
    {
        if (t_) {
            saved_ = t_->current();
            t_->setCurrent(id);
        }
    }
    ~AmbientScope()
    {
        if (t_)
            t_->setCurrent(saved_);
    }
    AmbientScope(const AmbientScope &) = delete;
    AmbientScope &operator=(const AmbientScope &) = delete;

  private:
    Tracker *t_;
    Id saved_{};
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_SCOPE_H
