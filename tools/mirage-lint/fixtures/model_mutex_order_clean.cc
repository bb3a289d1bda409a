// Fixture: model-mutex-order negatives — containers filled under a lock
// whose order is still a pure function of the seed, or reaches no
// schedule.

// The fix for the bridge-port bug: ports are inserted in MAC order.
void
Bridge::attach(BridgeEndpoint *ep)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto at = std::upper_bound(ports_.begin(), ports_.end(), ep->mac(),
                               [](const MacBytes &mac, BridgeEndpoint *p) {
                                   return mac < p->mac();
                               });
    ports_.insert(at, ep);
}

void
Bridge::arrive(BridgeEndpoint *from, Cstruct frame)
{
    for (BridgeEndpoint *ep : ports_)
        if (ep != from)
            dispatch(ep, frame);
}

// Sorted before it is walked.
void
Mailbox::post(Msg m)
{
    std::lock_guard<std::mutex> lk(mu_);
    pending_.push_back(m);
}

void
Mailbox::drain()
{
    std::sort(pending_.begin(), pending_.end());
    for (const Msg &m : pending_)
        deliver(m);
}

// Each element carries its causal key; the walk orders by it.
void
Outbox::post(CrossKey key, Fn fn)
{
    std::lock_guard<std::mutex> lk(mu_);
    posts_.push_back({key, std::move(fn)});
}

void
Outbox::flush()
{
    for (const Post &p : posts_)
        run(p);
}

// Appended without a lock: one thread, one order.
void
Table::add(Domain *d)
{
    rows_.push_back(d);
}

void
Table::each()
{
    for (Domain *d : rows_)
        d->poke();
}

// Audited: the order reaches no schedule.
void
Hypervisor::adopt(Domain *d)
{
    std::lock_guard<std::mutex> lk(mu_);
    // mirage-lint: allow(model-mutex-order) searched by id; teardown
    // order schedules nothing
    domains_.push_back(d);
}

void
Hypervisor::teardown()
{
    for (Domain *d : domains_)
        d->shutdown();
}
