/**
 * @file
 * Functional storage for DRAM contents.
 *
 * The simulator is functionally exact: every RD/WR moves real bytes and
 * every PIM instruction computes on real FP16 values, so end-to-end tests
 * can compare simulated memory against golden references bit-for-bit.
 * Rows are allocated lazily (zero-filled) so multi-gigabyte address
 * spaces cost only what a workload touches. A timing-only system
 * (PimSystem::setTimingOnly) leaves its stores empty.
 */

#ifndef PIMSIM_DRAM_DATASTORE_H
#define PIMSIM_DRAM_DATASTORE_H

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dram/geometry.h"

namespace pimsim {

/** One 32-byte burst of data. */
using Burst = std::array<std::uint8_t, kBurstBytes>;

enum class EccStatus; // dram/ecc.h

/** Outcome of scrubbing one burst (see DataStore::scrubBurst). */
struct ScrubOutcome
{
    std::uint64_t corrected = 0;     ///< words repaired in the array
    std::uint64_t uncorrectable = 0; ///< words with detected double faults
};

/**
 * Byte storage for all banks of one pseudo channel.
 *
 * With on-die ECC enabled (HbmGeometry::onDieEcc, Section VIII), every
 * write stores SEC-DED check bytes alongside the data and every read —
 * host or PIM bank-operand — corrects single-bit faults on the fly and
 * counts uncorrectable ones. Faults are injected with injectBitFlip()
 * (transient) and setStuckBit() (permanent cell defects); scrubBurst()
 * repairs correctable faults in the array itself so they cannot age
 * into double-bit errors.
 */
class DataStore
{
  public:
    /**
     * Observer for ECC events on reads (corrected and uncorrectable).
     * Arguments: bank, row, col, status.
     */
    using EccHook =
        std::function<void(unsigned, unsigned, unsigned, EccStatus)>;

    explicit DataStore(const HbmGeometry &geom);

    /**
     * Read one burst from (flat bank, row, col). Unwritten rows read 0.
     * With on-die ECC, single-bit faults are corrected in the returned
     * data (the stored copy keeps the fault until scrubbed) and the
     * worst per-word status is reported through `ecc` when non-null.
     */
    Burst read(unsigned bank, unsigned row, unsigned col,
               EccStatus *ecc = nullptr) const;

    /** Write one burst to (flat bank, row, col). */
    void write(unsigned bank, unsigned row, unsigned col, const Burst &data);

    /** Raw stored bytes, bypassing ECC decode (fault-inspection path). */
    Burst readRaw(unsigned bank, unsigned row, unsigned col) const;

    /** Bytes currently allocated (for tests / footprint stats). */
    std::size_t allocatedBytes() const;

    /** Allocated (bank, row) pairs in deterministic sorted order. */
    std::vector<std::pair<unsigned, unsigned>> allocatedRows() const;

    /** Flip one stored data bit without updating ECC (fault injection). */
    void injectBitFlip(unsigned bank, unsigned row, unsigned col,
                       unsigned bit);

    /**
     * Mark one cell as stuck at `value`: the stored bit is forced to the
     * value now and after every subsequent write (a permanent defect;
     * ECC check bytes always describe the intended data).
     */
    void setStuckBit(unsigned bank, unsigned row, unsigned col, unsigned bit,
                     bool value);

    /** Remove all stuck-at faults (end of a campaign). */
    void clearStuckBits();

    /** Number of registered stuck-at cells. */
    std::size_t stuckBitCount() const { return stuckCount_; }

    /**
     * Scrub one burst: decode the stored data against its check bytes
     * and write the corrected pattern (data and check) back into the
     * array. Uncorrectable words are left untouched. A no-op when ECC
     * is disabled or the row was never written.
     */
    ScrubOutcome scrubBurst(unsigned bank, unsigned row, unsigned col);

    /**
     * Observer called on every ECC-visible read fault (Corrected and
     * Uncorrectable). Scrub repairs do not fire the hook; they are
     * reported through ScrubOutcome instead.
     */
    void setEccHook(EccHook hook) { eccHook_ = std::move(hook); }

    /** Single-bit errors corrected by on-die ECC so far. */
    std::uint64_t eccCorrected() const { return eccCorrected_; }
    /** Double-bit errors detected (data returned as-is). */
    std::uint64_t eccUncorrectable() const { return eccUncorrectable_; }

  private:
    using RowKey = std::uint64_t;

    RowKey key(unsigned bank, unsigned row) const
    {
        return (static_cast<std::uint64_t>(bank) << 32) | row;
    }

    /** Force stuck cells of one row onto the stored bytes. */
    void applyStuckBits(unsigned bank, unsigned row, unsigned col);

    HbmGeometry geom_;
    std::unordered_map<RowKey, std::vector<std::uint8_t>> rows_;
    /** Per-row check bytes, 4 per burst (allocated with the row). */
    std::unordered_map<RowKey, std::vector<std::uint8_t>> ecc_;

    /** Stuck-at cells: (bank, row) -> list of (col, bit, value). */
    struct StuckBit
    {
        unsigned col;
        unsigned bit;
        bool value;
    };
    std::unordered_map<RowKey, std::vector<StuckBit>> stuck_;
    std::size_t stuckCount_ = 0;

    EccHook eccHook_;
    mutable std::uint64_t eccCorrected_ = 0;
    mutable std::uint64_t eccUncorrectable_ = 0;
};

} // namespace pimsim

#endif // PIMSIM_DRAM_DATASTORE_H
