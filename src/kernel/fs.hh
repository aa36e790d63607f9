/**
 * @file
 * In-memory filesystem (ramfs) for the mini kernel: hierarchical
 * directories, regular files with byte contents, POSIX-ish path
 * resolution. File data lives host-side (the simulated "disk"); all
 * data movement into guest memory is charged through the Vcpu copy
 * path at the syscall layer.
 */
#ifndef VEIL_KERNEL_FS_HH_
#define VEIL_KERNEL_FS_HH_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/bytes.hh"

namespace veil::kern {

using Ino = uint64_t;

/** One ramfs inode. */
struct Inode
{
    Ino ino = 0;
    bool dir = false;
    Bytes data;                           ///< file contents
    std::map<std::string, Ino> children; ///< directory entries
    uint32_t nlink = 1;
};

/** The in-memory filesystem. */
class RamFs
{
  public:
    RamFs();

    /** Resolve an absolute path; nullopt if any component is missing. */
    std::optional<Ino> resolve(const std::string &path) const;

    /** Split into (parent inode, leaf name); nullopt if parent missing. */
    std::optional<std::pair<Ino, std::string>>
    resolveParent(const std::string &path) const;

    Inode &inode(Ino ino);
    const Inode &inode(Ino ino) const;
    bool exists(Ino ino) const { return inodes_.count(ino) != 0; }

    /** Create a regular file under @p parent. Fails if name exists. */
    std::optional<Ino> createFile(Ino parent, const std::string &name);
    std::optional<Ino> createDir(Ino parent, const std::string &name);

    /** Remove a file (directories must be empty). */
    bool remove(Ino parent, const std::string &name);

    /** Rename within/between directories. */
    bool rename(Ino old_parent, const std::string &old_name, Ino new_parent,
                const std::string &new_name);

    Ino root() const { return kRoot; }

    static constexpr Ino kRoot = 1;

  private:
    std::map<Ino, Inode> inodes_;
    Ino next_ = 2;
};

/** Normalize and split an absolute path into components. */
std::vector<std::string> splitPath(const std::string &path);

} // namespace veil::kern

#endif // VEIL_KERNEL_FS_HH_
