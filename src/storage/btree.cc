#include "storage/btree.h"

#include <algorithm>

#include "base/logging.h"
#include "runtime/loop.h"

namespace mirage::storage {

namespace {

constexpr std::size_t sector = BlockDevice::sectorBytes;

u64
roundToSector(u64 bytes)
{
    return (bytes + sector - 1) / sector * sector;
}

} // namespace

// ---- Serialisation -----------------------------------------------------------

Cstruct
BTree::serialise(const Node &node)
{
    // Compute size first.
    std::size_t size = 4 + 1 + 2; // magic, type, nkeys
    for (std::size_t i = 0; i < node.keys.size(); i++) {
        size += 2 + node.keys[i].size();
        if (node.leaf)
            size += 4 + node.values[i].size();
    }
    if (!node.leaf)
        size += node.children.size() * 8;
    Cstruct out = Cstruct::create(4 + size); // u32 length prefix
    out.setBe32(0, u32(size));
    std::size_t at = 4;
    out.setBe32(at, nodeMagic);
    at += 4;
    out.setU8(at++, node.leaf ? 1 : 2);
    out.setBe16(at, u16(node.keys.size()));
    at += 2;
    for (std::size_t i = 0; i < node.keys.size(); i++) {
        const std::string &k = node.keys[i];
        out.setBe16(at, u16(k.size()));
        at += 2;
        for (std::size_t j = 0; j < k.size(); j++)
            out.setU8(at + j, u8(k[j]));
        at += k.size();
        if (node.leaf) {
            const std::string &v = node.values[i];
            out.setBe32(at, u32(v.size()));
            at += 4;
            for (std::size_t j = 0; j < v.size(); j++)
                out.setU8(at + j, u8(v[j]));
            at += v.size();
        }
    }
    if (!node.leaf) {
        for (u64 child : node.children) {
            out.setBe64(at, child);
            at += 8;
        }
    }
    return out;
}

Result<BTree::Node>
BTree::deserialise(const Cstruct &raw)
{
    if (raw.length() < 4)
        return parseError("btree node: truncated length");
    u32 size = raw.getBe32(0);
    if (raw.length() < 4 + size || size < 7)
        return parseError("btree node: truncated body");
    Cstruct body = raw.sub(4, size);
    if (body.getBe32(0) != nodeMagic)
        return parseError("btree node: bad magic");
    Node node;
    node.leaf = body.getU8(4) == 1;
    u16 nkeys = body.getBe16(5);
    std::size_t at = 7;
    for (u16 i = 0; i < nkeys; i++) {
        auto klen_r = body.tryGetBe16(at);
        if (!klen_r.ok())
            return parseError("btree node: truncated key");
        u16 klen = klen_r.value();
        at += 2;
        auto kview = body.trySub(at, klen);
        if (!kview.ok())
            return parseError("btree node: key overruns");
        node.keys.push_back(kview.value().toString());
        at += klen;
        if (node.leaf) {
            auto vlen_r = body.tryGetBe32(at);
            if (!vlen_r.ok())
                return parseError("btree node: truncated value len");
            u32 vlen = vlen_r.value();
            at += 4;
            auto vview = body.trySub(at, vlen);
            if (!vview.ok())
                return parseError("btree node: value overruns");
            node.values.push_back(vview.value().toString());
            at += vlen;
        }
    }
    if (!node.leaf) {
        for (u16 i = 0; i <= nkeys; i++) {
            if (at + 8 > body.length())
                return parseError("btree node: truncated children");
            node.children.push_back(body.getBe64(at));
            at += 8;
        }
    }
    return node;
}

// ---- Superblock / mount --------------------------------------------------------

void
BTree::writeSuper(std::function<void(Status)> done)
{
    Cstruct super = Cstruct::create(sector);
    super.setBe32(0, superMagic);
    super.setBe64(4, root_offset_);
    super.setBe64(12, log_end_);
    super.setBe64(20, entries_);
    commits_++;
    dev_.write(0, 1, super, std::move(done));
}

void
BTree::format(std::function<void(Status)> done)
{
    root_offset_ = 0;
    // Offset 0 is the "empty tree" sentinel; the log proper starts one
    // sector in so no real node can ever sit at offset 0.
    log_end_ = sector;
    entries_ = 0;
    cache_.clear();
    mounted_ = true;
    writeSuper(std::move(done));
}

void
BTree::mount(std::function<void(Status)> done)
{
    Cstruct super = Cstruct::create(sector);
    dev_.read(0, 1, super, [this, super,
                            done = std::move(done)](Status st) {
        if (!st.ok()) {
            done(st);
            return;
        }
        if (super.getBe32(0) != superMagic) {
            done(parseError("BTree: bad superblock"));
            return;
        }
        root_offset_ = super.getBe64(4);
        log_end_ = super.getBe64(12);
        entries_ = super.getBe64(20);
        cache_.clear();
        mounted_ = true;
        done(Status::success());
    });
}

// ---- Node IO --------------------------------------------------------------------

void
BTree::loadNode(u64 offset, std::function<void(Result<NodePtr>)> done)
{
    auto it = cache_.find(offset);
    if (it != cache_.end()) {
        cache_hits_++;
        done(it->second);
        return;
    }
    cache_misses_++;
    // Nodes are sector-aligned and at most nodeSlotBytes long.
    u32 sectors = u32(nodeSlotBytes / sector);
    u64 first = logStartSector + offset / sector;
    u64 avail = dev_.sizeSectors() - first;
    sectors = u32(std::min<u64>(sectors, avail));
    Cstruct buf = Cstruct::create(std::size_t(sectors) * sector);
    readRange(dev_, first, sectors, buf,
              [this, buf, offset, done = std::move(done)](Status st) {
                  if (!st.ok()) {
                      done(st.error());
                      return;
                  }
                  auto node = deserialise(buf);
                  if (!node.ok()) {
                      done(node.error());
                      return;
                  }
                  auto ptr =
                      std::make_shared<const Node>(std::move(node.value()));
                  if (cache_.size() > 4096)
                      cache_.clear(); // simple bound
                  cache_[offset] = ptr;
                  done(ptr);
              });
}

void
BTree::commitNodes(std::vector<Node> nodes, std::size_t root_index,
                   i64 entry_delta, std::function<void(Status)> done)
{
    // Serialise all nodes into one contiguous, sector-aligned batch.
    std::vector<Cstruct> blobs;
    std::vector<u64> offsets;
    u64 at = roundToSector(log_end_);
    std::size_t total = 0;
    for (auto &n : nodes) {
        Cstruct blob = serialise(n);
        offsets.push_back(at);
        u64 padded = roundToSector(blob.length());
        at += padded;
        total += std::size_t(padded);
        blobs.push_back(blob);
    }
    (void)root_index;
    Cstruct batch = Cstruct::create(total);
    std::size_t cursor = 0;
    for (auto &b : blobs) {
        batch.blitFrom(b, 0, cursor, b.length());
        cursor += std::size_t(roundToSector(b.length()));
    }
    u64 first_sector = logStartSector + roundToSector(log_end_) / sector;
    u64 new_root = offsets[root_index];
    u64 new_end = at;

    writeRange(
        dev_, first_sector, u32(total / sector), batch,
        [this, nodes = std::move(nodes), offsets, new_root, new_end,
         entry_delta, done = std::move(done)](Status st) mutable {
            if (!st.ok()) {
                done(st);
                return;
            }
            nodes_appended_ += nodes.size();
            for (std::size_t i = 0; i < nodes.size(); i++) {
                cache_[offsets[i]] = std::make_shared<const Node>(
                    std::move(nodes[i]));
            }
            root_offset_ = new_root;
            log_end_ = new_end;
            entries_ = u64(i64(entries_) + entry_delta);
            writeSuper(done);
        });
}

// ---- Descent ---------------------------------------------------------------------

void
BTree::descend(
    const std::string &key, u64 offset, std::vector<PathElem> path,
    std::function<void(Result<std::vector<PathElem>>)> done)
{
    loadNode(offset, [this, key, path = std::move(path),
                      done = std::move(done)](Result<NodePtr> r) mutable {
        if (!r.ok()) {
            done(r.error());
            return;
        }
        NodePtr node = r.value();
        if (node->leaf) {
            path.push_back(PathElem{node, 0});
            done(std::move(path));
            return;
        }
        // First child whose separator exceeds the key.
        std::size_t idx = std::size_t(
            std::upper_bound(node->keys.begin(), node->keys.end(),
                             key) -
            node->keys.begin());
        u64 child = node->children[idx];
        path.push_back(PathElem{node, idx});
        descend(key, child, std::move(path), std::move(done));
    });
}

// ---- Operations -------------------------------------------------------------------

void
BTree::get(const std::string &key,
           std::function<void(Result<std::string>)> done)
{
    if (!mounted_ || root_offset_ == 0) {
        done(notFoundError("BTree: empty tree"));
        return;
    }
    descend(key, root_offset_, {},
            [key, done = std::move(done)](
                Result<std::vector<PathElem>> r) {
                if (!r.ok()) {
                    done(r.error());
                    return;
                }
                const Node &leaf = *r.value().back().node;
                auto it = std::lower_bound(leaf.keys.begin(),
                                           leaf.keys.end(), key);
                if (it == leaf.keys.end() || *it != key) {
                    done(notFoundError("BTree: no such key"));
                    return;
                }
                done(leaf.values[std::size_t(it - leaf.keys.begin())]);
            });
}

void
BTree::rebuildPath(const std::vector<PathElem> &path,
                   std::vector<Node> replacements,
                   std::vector<std::string> separators, i64 entry_delta,
                   std::function<void(Status)> done)
{
    // Walk ancestors bottom-up, COW-rewriting each; `replacements`
    // holds 1 or 2 nodes replacing the child at this level.
    std::vector<Node> to_append; // appended in order
    // Node offsets are assigned in commitNodes in the same order we
    // push them here; children referencing new nodes use placeholder
    // indices resolved after offsets are known. To keep it simple we
    // assign offsets *now*, mirroring commitNodes's layout logic.
    u64 base = roundToSector(log_end_);
    auto offset_of = [&](std::size_t index) {
        u64 at = base;
        for (std::size_t i = 0; i < index; i++) {
            at += roundToSector(serialise(to_append[i]).length());
        }
        return at;
    };

    std::vector<u64> child_offsets;
    for (auto &n : replacements) {
        to_append.push_back(std::move(n));
        child_offsets.push_back(offset_of(to_append.size() - 1));
    }

    for (std::size_t level = path.size() - 1; level-- > 0;) {
        const PathElem &pe = path[level];
        Node parent = *pe.node; // copy (COW)
        // Replace child pointer at pe.childIndex.
        parent.children[pe.childIndex] = child_offsets[0];
        if (child_offsets.size() == 2) {
            parent.keys.insert(parent.keys.begin() +
                                   i64(pe.childIndex),
                               separators[0]);
            parent.children.insert(parent.children.begin() +
                                       i64(pe.childIndex) + 1,
                                   child_offsets[1]);
        }
        child_offsets.clear();
        separators.clear();
        if (parent.keys.size() > maxKeys) {
            // Split internal node.
            std::size_t mid = parent.keys.size() / 2;
            Node left, right;
            left.leaf = right.leaf = false;
            left.keys.assign(parent.keys.begin(),
                             parent.keys.begin() + i64(mid));
            right.keys.assign(parent.keys.begin() + i64(mid) + 1,
                              parent.keys.end());
            left.children.assign(parent.children.begin(),
                                 parent.children.begin() + i64(mid) +
                                     1);
            right.children.assign(parent.children.begin() + i64(mid) +
                                      1,
                                  parent.children.end());
            separators.push_back(parent.keys[mid]);
            to_append.push_back(std::move(left));
            child_offsets.push_back(offset_of(to_append.size() - 1));
            to_append.push_back(std::move(right));
            child_offsets.push_back(offset_of(to_append.size() - 1));
        } else {
            to_append.push_back(std::move(parent));
            child_offsets.push_back(offset_of(to_append.size() - 1));
        }
    }

    std::size_t root_index;
    if (child_offsets.size() == 2) {
        // Grow a new root.
        Node root;
        root.leaf = false;
        root.keys.push_back(separators[0]);
        root.children = child_offsets;
        to_append.push_back(std::move(root));
        root_index = to_append.size() - 1;
    } else {
        // The last appended node is the new root.
        root_index = to_append.size() - 1;
    }
    commitNodes(std::move(to_append), root_index, entry_delta,
                std::move(done));
}

void
BTree::mutate(Mutation op, Done done)
{
    queued_.emplace_back(std::move(op), std::move(done));
    if (!mutating_)
        runNextMutation();
}

void
BTree::runNextMutation()
{
    auto [op, done] = std::move(queued_.front());
    queued_.pop_front();
    mutating_ = true;
    op([this, done = std::move(done)](Status st) {
        mutating_ = false;
        done(st);
        // @p done may already have started the next one.
        if (!mutating_ && !queued_.empty())
            runNextMutation();
    });
}

void
BTree::set(const std::string &key, const std::string &value, Done done)
{
    mutate([this, key, value](Done d) { setNow(key, value, std::move(d)); },
           std::move(done));
}

void
BTree::remove(const std::string &key, Done done)
{
    mutate([this, key](Done d) { removeNow(key, std::move(d)); },
           std::move(done));
}

void
BTree::setNow(const std::string &key, const std::string &value, Done done)
{
    if (!mounted_) {
        done(stateError("BTree: not mounted"));
        return;
    }
    if (key.empty() || key.size() > maxKeyBytes ||
        value.size() > maxValueBytes) {
        done(boundsError("BTree: key/value size"));
        return;
    }
    if (root_offset_ == 0) {
        Node leaf;
        leaf.leaf = true;
        leaf.keys.push_back(key);
        leaf.values.push_back(value);
        std::vector<Node> nodes;
        nodes.push_back(std::move(leaf));
        commitNodes(std::move(nodes), 0, 1, std::move(done));
        return;
    }
    descend(key, root_offset_, {},
            [this, key, value, done = std::move(done)](
                Result<std::vector<PathElem>> r) mutable {
                if (!r.ok()) {
                    done(r.error());
                    return;
                }
                const std::vector<PathElem> &path = r.value();
                Node leaf = *path.back().node; // COW copy
                auto it = std::lower_bound(leaf.keys.begin(),
                                           leaf.keys.end(), key);
                i64 delta = 0;
                if (it != leaf.keys.end() && *it == key) {
                    leaf.values[std::size_t(it - leaf.keys.begin())] =
                        value;
                } else {
                    std::size_t pos =
                        std::size_t(it - leaf.keys.begin());
                    leaf.keys.insert(it, key);
                    leaf.values.insert(leaf.values.begin() + i64(pos),
                                       value);
                    delta = 1;
                }
                std::vector<Node> repl;
                std::vector<std::string> seps;
                if (leaf.keys.size() > maxKeys) {
                    std::size_t mid = leaf.keys.size() / 2;
                    Node left, right;
                    left.leaf = right.leaf = true;
                    left.keys.assign(leaf.keys.begin(),
                                     leaf.keys.begin() + i64(mid));
                    left.values.assign(leaf.values.begin(),
                                       leaf.values.begin() + i64(mid));
                    right.keys.assign(leaf.keys.begin() + i64(mid),
                                      leaf.keys.end());
                    right.values.assign(leaf.values.begin() + i64(mid),
                                        leaf.values.end());
                    seps.push_back(right.keys.front());
                    repl.push_back(std::move(left));
                    repl.push_back(std::move(right));
                } else {
                    repl.push_back(std::move(leaf));
                }
                rebuildPath(path, std::move(repl), std::move(seps),
                            delta, std::move(done));
            });
}

void
BTree::removeNow(const std::string &key, Done done)
{
    if (!mounted_ || root_offset_ == 0) {
        done(notFoundError("BTree: empty tree"));
        return;
    }
    descend(key, root_offset_, {},
            [this, key, done = std::move(done)](
                Result<std::vector<PathElem>> r) mutable {
                if (!r.ok()) {
                    done(r.error());
                    return;
                }
                const std::vector<PathElem> &path = r.value();
                Node leaf = *path.back().node;
                auto it = std::lower_bound(leaf.keys.begin(),
                                           leaf.keys.end(), key);
                if (it == leaf.keys.end() || *it != key) {
                    done(notFoundError("BTree: no such key"));
                    return;
                }
                std::size_t pos = std::size_t(it - leaf.keys.begin());
                leaf.keys.erase(it);
                leaf.values.erase(leaf.values.begin() + i64(pos));
                // Append-only laziness: no merge on underflow; space
                // is reclaimed by offline compaction.
                std::vector<Node> repl;
                repl.push_back(std::move(leaf));
                rebuildPath(path, std::move(repl), {}, -1,
                            std::move(done));
            });
}

void
BTree::rangeWalk(
    u64 offset,
    std::shared_ptr<std::vector<std::pair<std::string, std::string>>>
        acc,
    const std::string &lo, const std::string &hi,
    std::function<void(Status)> done)
{
    loadNode(offset, [this, acc, lo, hi, done = std::move(done)](
                         Result<NodePtr> r) mutable {
        if (!r.ok()) {
            done(r.error());
            return;
        }
        NodePtr node = r.value();
        if (node->leaf) {
            for (std::size_t i = 0; i < node->keys.size(); i++) {
                if (node->keys[i] >= lo && node->keys[i] <= hi)
                    acc->emplace_back(node->keys[i], node->values[i]);
            }
            done(Status::success());
            return;
        }
        // Children overlapping [lo, hi].
        auto children = std::make_shared<std::vector<u64>>();
        for (std::size_t i = 0; i < node->children.size(); i++) {
            bool below = i > 0 && node->keys[i - 1] > hi;
            bool above =
                i < node->keys.size() && node->keys[i] < lo;
            if (!below && !above)
                children->push_back(node->children[i]);
        }
        // The per-child descent is an asyncLoop: each pending child
        // walk owns the next step, never the other way round, so an
        // abandoned I/O (or any terminal path) frees the whole loop
        // without the manual *fn = nullptr resets the stored-function
        // idiom needed.
        auto walk_next = rt::asyncLoop<std::size_t>(
            [this, children, acc, lo, hi, done](
                std::size_t i,
                std::function<void(std::size_t)> next) {
                if (i >= children->size()) {
                    done(Status::success());
                    return;
                }
                rangeWalk((*children)[i], acc, lo, hi,
                          [next = std::move(next), i,
                           done](Status st) {
                              if (!st.ok()) {
                                  done(st);
                                  return;
                              }
                              next(i + 1);
                          });
            });
        walk_next(0);
    });
}

void
BTree::range(
    const std::string &lo, const std::string &hi,
    std::function<void(
        Result<std::vector<std::pair<std::string, std::string>>>)>
        done)
{
    auto acc = std::make_shared<
        std::vector<std::pair<std::string, std::string>>>();
    if (!mounted_ || root_offset_ == 0) {
        done(*acc);
        return;
    }
    rangeWalk(root_offset_, acc, lo, hi,
              [acc, done = std::move(done)](Status st) {
                  if (!st.ok())
                      done(st.error());
                  else
                      done(*acc);
              });
}

} // namespace mirage::storage
