/**
 * @file
 * Append-only copy-on-write B-tree — the Baardskeerder-style storage
 * library the paper ports for the dynamic web appliance (§3.5.2,
 * §4.4). Updated nodes are never overwritten: an insert rewrites the
 * leaf and its ancestors to fresh appended locations and commits by
 * updating the root pointer, so a crash at any point leaves the
 * previous root intact. Caching policy and buffer management live
 * inside the library, per the paper's storage philosophy.
 */

#ifndef MIRAGE_STORAGE_BTREE_H
#define MIRAGE_STORAGE_BTREE_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/block.h"

namespace mirage::storage {

class BTree
{
  public:
    static constexpr u32 superMagic = 0x42545245; // "BTRE"
    static constexpr u32 nodeMagic = 0x424e4f44;  // "BNOD"
    static constexpr std::size_t maxKeys = 8;
    static constexpr std::size_t maxKeyBytes = 255;
    static constexpr std::size_t maxValueBytes = 512;
    static constexpr std::size_t nodeSlotBytes = 8192;

    explicit BTree(BlockDevice &dev) : dev_(dev) {}

    void format(std::function<void(Status)> done);
    void mount(std::function<void(Status)> done);

    /**
     * Insert or replace @p key. Mutations (set, remove) may be called
     * while earlier ones are still committing: they queue and run one
     * at a time, in call order, each from the root the previous one
     * committed.
     */
    void set(const std::string &key, const std::string &value,
             std::function<void(Status)> done);

    void get(const std::string &key,
             std::function<void(Result<std::string>)> done);

    void remove(const std::string &key,
                std::function<void(Status)> done);

    /** All pairs with lo <= key <= hi, in order. */
    void
    range(const std::string &lo, const std::string &hi,
          std::function<
              void(Result<std::vector<std::pair<std::string,
                                                std::string>>>)>
              done);

    u64 entryCount() const { return entries_; }
    u64 commits() const { return commits_; }
    u64 nodesAppended() const { return nodes_appended_; }
    u64 logBytes() const { return log_end_; }
    u64 cacheHits() const { return cache_hits_; }
    u64 cacheMisses() const { return cache_misses_; }

  private:
    struct Node
    {
        bool leaf = true;
        std::vector<std::string> keys;
        std::vector<std::string> values; //!< leaf payloads
        std::vector<u64> children;       //!< internal child offsets
    };
    using NodePtr = std::shared_ptr<const Node>;

    struct PathElem
    {
        NodePtr node;
        std::size_t childIndex;
    };

    static constexpr u64 logStartSector = 1;

    using Done = std::function<void(Status)>;
    using Mutation = std::function<void(Done)>;

    /**
     * Run @p op once every earlier mutation has committed. A mutation
     * appends at log_end_ and rebuilds from root_offset_, and both
     * advance only when its commit completes, so two in flight would
     * overwrite each other's nodes.
     */
    void mutate(Mutation op, Done done);
    void runNextMutation();
    void setNow(const std::string &key, const std::string &value,
                Done done);
    void removeNow(const std::string &key, Done done);

    void loadNode(u64 offset,
                  std::function<void(Result<NodePtr>)> done);
    static Cstruct serialise(const Node &node);
    static Result<Node> deserialise(const Cstruct &raw);

    /** Append new nodes and commit a new root (one batch write). */
    void commitNodes(std::vector<Node> nodes, std::size_t root_index,
                     i64 entry_delta, std::function<void(Status)> done);

    void descend(const std::string &key, u64 offset,
                 std::vector<PathElem> path,
                 std::function<void(Result<std::vector<PathElem>>)>
                     done);

    /** Rebuild the path after replacing the leaf with 1..2 new nodes. */
    void rebuildPath(const std::vector<PathElem> &path,
                     std::vector<Node> replacements,
                     std::vector<std::string> separators,
                     i64 entry_delta, std::function<void(Status)> done);

    void rangeWalk(
        u64 offset, std::shared_ptr<std::vector<
                        std::pair<std::string, std::string>>> acc,
        const std::string &lo, const std::string &hi,
        std::function<void(Status)> done);

    void writeSuper(std::function<void(Status)> done);

    BlockDevice &dev_;
    bool mounted_ = false;
    u64 root_offset_ = 0; //!< 0 = empty tree
    u64 log_end_ = 0;     //!< bytes used past logStartSector
    u64 entries_ = 0;
    u64 commits_ = 0;
    u64 nodes_appended_ = 0;
    u64 cache_hits_ = 0;
    u64 cache_misses_ = 0;
    std::map<u64, NodePtr> cache_;
    bool mutating_ = false; //!< a set/remove is running, not yet committed
    std::deque<std::pair<Mutation, Done>> queued_;
};

} // namespace mirage::storage

#endif // MIRAGE_STORAGE_BTREE_H
