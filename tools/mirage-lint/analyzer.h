/**
 * @file
 * mirage-lint's analysis passes: light structural recovery (functions,
 * lambdas, call contexts) over the token stream, a global symbol table
 * of shared_ptr-typed names, and the project-specific checks.
 *
 * Check catalog (see DESIGN.md "Static analysis" for the rationale):
 *
 *  continuation-self-capture  a lambda captured, by copy, into a
 *      handler/member slot reached through the very shared_ptr it
 *      captures (st->conn->onData([st]{...})), a mutual pair of such
 *      registrations (a->onComplete([b]) + b->onComplete([a])), or a
 *      self-referential stored std::function (*f = [f]{...}). All
 *      three are reference cycles: the PR 2 TcpConnection leak class.
 *
 *  lease-escape  a view acquired from GrantPool::acquirePage() that
 *      escapes the I/O operation that acquired it: returned from a
 *      non-transfer function, captured into a lambda, or stashed in a
 *      member container/field. Leases must be scoped to the request
 *      (the tx.abort_leaked_lease runtime class, caught statically);
 *      audited long-lived holders carry an explicit allow() comment.
 *
 *  wall-clock-in-sim  host time, host randomness or host threads in
 *      simulation code: everything in src/ must draw time from the
 *      virtual clock and randomness from the seeded mirage::Rng, or
 *      replay determinism (and the sharded-engine merge that depends
 *      on it) is silently lost. The sanctioned exceptions carry
 *      suppressions in-source: per-line "mirage-lint: allow(...)"
 *      for the ShardSet's worker/barrier plumbing, and the
 *      file-scoped "mirage-lint: allow-file(...)" for
 *      src/trace/wallprof.* — the wall profiler is host-clock
 *      measurement top to bottom and is the one component allowed to
 *      read real time inside src/ (it observes the workers; nothing
 *      it measures feeds back into virtual scheduling).
 *
 *  ring-index-unmasked  a shared-ring producer/consumer counter used
 *      directly as an array index or byte offset. Counters are free
 *      running (they wrap at 2^32); only the masked slot() accessor
 *      may turn one into a slot address.
 *
 *  cross-shard-direct-schedule  an event scheduled straight onto
 *      another domain's engine (peer->engine().at/after/atKeyed)
 *      instead of through the sharded mailbox
 *      (sim::crossPost/crossPostAt). Direct posts bypass the
 *      conservative window merge: the event's causal key is consumed
 *      on the wrong shard and replay stops being a pure function of
 *      the seed once the domains land on different shards. A domain's
 *      own engine, reached through a held reference (engine_,
 *      dom.engine()), stays fair game.
 *
 *  flow-scope-hop  a function that enqueues onto a cross-domain ring
 *      (startRequest/startResponse) with no flow handling in sight —
 *      neither a per-slot flow stamp nor a FlowScope nor restored
 *      bookkeeping. Such hops break causal request attribution (the
 *      PR 5 polled-consumer bug class); flow-less rings document the
 *      invariant with an allow() comment.
 *
 *  model-mutex-order  in src/{hypervisor,core,drivers,net}, a member
 *      container appended to (push_back/emplace_back/...) under a
 *      lock and iterated by another function of the same file, with
 *      no sort of it and no causal key in the appended element. Shard
 *      threads take the lock in host order, so the walk's order — and
 *      whatever it schedules — stops being a pure function of the seed
 *      (the Bridge::attach flood-order bug). Containers whose order
 *      reaches no schedule carry an allow() comment with the reason.
 */

#ifndef MIRAGE_LINT_ANALYZER_H
#define MIRAGE_LINT_ANALYZER_H

#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace mlint {

struct Finding
{
    std::string check;
    std::string file;
    int line = 0;
    std::string symbol; //!< enclosing function (or flagged identifier)
    std::string message;
};

/** All known check names, for allow()/--list-checks validation. */
const std::vector<std::string> &checkNames();

class Analyzer
{
  public:
    /** Pass 1: learn shared_ptr aliases + shared-typed names. Call for
     *  every file before any check() call. */
    void collectSymbols(const LexedFile &f);

    /** Pass 2: run every check; suppression comments already applied.
     *  @p wallclock_allowed skips wall-clock-in-sim for this file. */
    std::vector<Finding> check(const LexedFile &f,
                               bool wallclock_allowed);

  private:
    struct Lambda
    {
        int line = 0;
        std::set<std::string> copies; //!< by-copy captured names
        bool captures_this = false;
        std::size_t body_begin = 0, body_end = 0; //!< token range
        //! receiver of the call this lambda is an argument of
        std::string recv_root, recv_method;
        bool recv_arrow = false; //!< chain dereferences recv_root
    };

    struct Function
    {
        std::string name;      //!< last component, e.g. "onAccept"
        std::string qualified; //!< e.g. "HttpServer::onAccept"
        int line = 0;
        std::size_t body_begin = 0, body_end = 0;
        std::vector<Lambda> lambdas;
    };

    std::vector<Function> segment(const LexedFile &f) const;
    void findLambdas(const LexedFile &f, Function &fn) const;

    void checkSelfCapture(const LexedFile &f, const Function &fn,
                          std::vector<Finding> &out) const;
    void checkLeaseEscape(const LexedFile &f, const Function &fn,
                          std::vector<Finding> &out) const;
    void checkFlowScope(const LexedFile &f, const Function &fn,
                        std::vector<Finding> &out) const;
    void checkWallClock(const LexedFile &f,
                        std::vector<Finding> &out) const;
    void checkRingIndex(const LexedFile &f,
                        std::vector<Finding> &out) const;
    void checkCrossShard(const LexedFile &f,
                         std::vector<Finding> &out) const;
    void checkMutexOrder(const LexedFile &f,
                         const std::vector<Function> &fns,
                         std::vector<Finding> &out) const;

    bool isShared(const std::string &name) const;

    std::set<std::string> aliases_; //!< type aliases of shared_ptr<...>
    std::set<std::string> shared_; //!< variable/member names
};

/** Parse "mirage-lint: allow(a,b)" and "expect: a" comment side
 *  tables; returns (line -> set of check names). A comment on its own
 *  line applies to the next line that has code. */
void commentDirectives(const LexedFile &f, const char *key,
                       std::vector<std::pair<int, std::string>> &out);

} // namespace mlint

#endif // MIRAGE_LINT_ANALYZER_H
