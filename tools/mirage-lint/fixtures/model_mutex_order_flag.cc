// Fixture: model-mutex-order positives, built from the bridge-port bug.
// Vifs attach from whichever shard runs their guest's entry first, so
// ports_ held host arrival order, and the broadcast flood walked it:
// the flood's dispatch order followed thread timing, not the seed.

struct Bridge
{
    void attach(BridgeEndpoint *ep);
    void detach(BridgeEndpoint *ep);
    void arrive(BridgeEndpoint *from, Cstruct frame);

    std::mutex mu_;
    std::vector<BridgeEndpoint *> ports_;
};

void
Bridge::attach(BridgeEndpoint *ep)
{
    std::lock_guard<std::mutex> lk(mu_);
    // expect: model-mutex-order
    ports_.push_back(ep);
}

void
Bridge::detach(BridgeEndpoint *ep)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(ports_, ep);
}

void
Bridge::arrive(BridgeEndpoint *from, Cstruct frame)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Broadcast or unknown destination: flood.
    for (BridgeEndpoint *ep : ports_)
        if (ep != from)
            dispatch(ep, frame);
}

// The same leak through this-> and an iterator walk.
void
Scheduler::enqueue(Domain *d)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (d->runnable()) {
        // expect: model-mutex-order
        this->runq_.emplace_back(d);
    }
}

void
Scheduler::tick()
{
    for (auto it = runq_.begin(); it != runq_.end(); ++it)
        (*it)->vcpu().kick();
}
