/**
 * @file
 * System configuration (paper Table 2 defaults) shared by every
 * architecture under study.
 */

#ifndef ESPNUCA_COMMON_CONFIG_HPP_
#define ESPNUCA_COMMON_CONFIG_HPP_

#include <cstdint>
#include <string>

#include "common/bitops.hpp"
#include "common/types.hpp"

namespace espnuca {

/** Compile-time substrate ceilings: the directory's per-block holder
 *  masks are fixed-width inline bitsets (common/inline_bitset.hpp)
 *  sized for the largest scaling configuration (64 cores, 4 banks
 *  each). validate() enforces them with a named-knob diagnosis. */
inline constexpr std::uint32_t kMaxCores = 64;
inline constexpr std::uint32_t kMaxL2Banks = 256;

/**
 * CMP system parameters. Defaults reproduce Table 2 of the paper:
 * 8 out-of-order cores (64-entry window, 4-wide, 16 outstanding misses),
 * 32 KB 4-way L1 I/D at 3 cycles, an 8 MB L2 NUCA in 32 16-way banks of
 * 5 cycles (2-cycle tag), a mesh with 128-bit links and 5-cycle hops
 * (3-cycle router + 2-cycle link).
 */
struct SystemConfig
{
    // -- Cores (Table 2: "Core") -------------------------------------
    std::uint32_t numCores = 8;
    std::uint32_t windowSize = 64;      //!< out-of-order window entries
    std::uint32_t issueWidth = 4;       //!< instructions per cycle
    std::uint32_t maxOutstanding = 16;  //!< outstanding memory requests

    // -- L1 caches (Table 2: "L1 I/D cache") -------------------------
    std::uint32_t l1SizeBytes = 32 * 1024;
    std::uint32_t l1Ways = 4;
    std::uint32_t blockBytes = 64;
    Cycle l1Latency = 3;                //!< data access
    Cycle l1TagLatency = 1;             //!< tag-only access

    // -- L2 NUCA (Table 2: "L2 cache") -------------------------------
    std::uint64_t l2SizeBytes = 8ULL * 1024 * 1024;
    std::uint32_t l2Banks = 32;
    std::uint32_t l2Ways = 16;
    Cycle l2Latency = 5;                //!< sequential data access
    Cycle l2TagLatency = 2;             //!< tag access

    // -- Network (Table 2: "Network") --------------------------------
    Cycle routerLatency = 3;
    Cycle linkLatency = 2;
    std::uint32_t linkBytes = 16;       //!< 128-bit links
    std::uint32_t ctrlMsgBytes = 8;     //!< header-only protocol message
    std::uint32_t dataMsgBytes = 72;    //!< 64 B block + 8 B header

    // -- Memory -------------------------------------------------------
    Cycle memLatency = 300;             //!< controller + DRAM round trip
    Cycle memCyclePerAccess = 16;       //!< bandwidth: 1 block / 16 cycles
    std::uint32_t memControllers = 4;   //!< on the mesh's central row

    // -- Layout (defaults reproduce the paper's Figure 1a mesh) -------
    /**
     * Mesh dimensions; 0 = let the placement builder derive them
     * (paper-4x3 uses numCores/2 x 3, tiled a square-ish power-of-two
     * grid). Both must be given or neither.
     */
    std::uint32_t meshCols = 0;
    std::uint32_t meshRows = 0;
    /**
     * Placement selector: "" or "paper-4x3" for the paper layout,
     * "tiled" for the scaling layout, or a full espnuca-placement-v1
     * map (the CLI inlines @file contents so the config — and thus
     * every digest derived from it — carries the map's content, not a
     * path). See net/placement.hpp.
     */
    std::string placement;

    /** True when the layout knobs are at their paper defaults; the
     *  config digest and provenance JSON only mention the layout when
     *  this is false, keeping paper-config artifacts byte-identical
     *  with pre-placement builds. */
    bool
    placementIsDefault() const
    {
        return (placement.empty() || placement == "paper-4x3") &&
               meshCols == 0 && meshRows == 0;
    }

    // -- Robustness (0 = disabled) ------------------------------------
    Cycle watchdogStallCycles = 0; //!< fail after N cycles w/o progress
    Cycle watchdogMaxCycles = 0;   //!< absolute simulated-cycle budget

    // -- ESP-NUCA monitor (paper Section 5.2 chosen values) -----------
    std::uint32_t emaBits = 8;          //!< b: EMA fixed-point bits
    std::uint32_t emaShift = 1;         //!< a: alpha = 2^-a (N = 3)
    std::uint32_t degradationShift = 3; //!< d: tolerated loss = 2^-d
    std::uint32_t conventionalSamples = 2; //!< sampled conventional sets
    std::uint32_t referenceSamples = 1;    //!< reference sets per bank
    std::uint32_t explorerSamples = 1;     //!< explorer sets per bank
    std::uint32_t monitorPeriod = 64;   //!< set references between updates

    // -- Derived geometry ---------------------------------------------
    std::uint32_t blockOffsetBits() const { return exactLog2(blockBytes); }
    std::uint32_t bankBits() const { return exactLog2(l2Banks); } // n
    std::uint32_t coreBits() const { return exactLog2(numCores); } // p
    /** Banks in one core's private partition: 2^(n-p). */
    std::uint32_t banksPerCore() const { return l2Banks / numCores; }
    std::uint64_t bankBytes() const { return l2SizeBytes / l2Banks; }
    std::uint32_t
    l2SetsPerBank() const
    {
        return static_cast<std::uint32_t>(
            bankBytes() / (static_cast<std::uint64_t>(l2Ways) * blockBytes));
    }
    std::uint32_t l2IndexBits() const { return exactLog2(l2SetsPerBank()); }
    std::uint32_t l1Sets() const { return l1SizeBytes / (l1Ways * blockBytes); }
    /** Split-L1 count: one I-cache and one D-cache per core. */
    std::uint32_t l1Count() const { return numCores * 2; }

    /** Total token count per block (see DESIGN.md 5.2). */
    std::uint32_t totalTokens() const { return 64; }

    /**
     * Diagnose the configuration: returns "" when consistent, else a
     * message naming the offending knob. Covers every derived-geometry
     * precondition that used to surface as an assert mid-construction
     * (the even-core requirement of the paper placement, the
     * power-of-two bankset count D-NUCA's column math needs, ...).
     * Placement *content* errors (a malformed --placement map) are
     * diagnosed by PlacementMap::forConfig, which names knobs the same
     * way.
     */
    std::string
    validate() const
    {
        auto pow2 = [](std::uint64_t v, const char *knob) -> std::string {
            if (v == 0 || !isPow2(v))
                return std::string(knob) +
                       ": must be a non-zero power of two, got " +
                       std::to_string(v);
            return "";
        };
        std::string e;
        if (!(e = pow2(numCores, "numCores")).empty())
            return e;
        if (numCores > kMaxCores)
            return "numCores: directory holder masks support at most " +
                   std::to_string(kMaxCores) + " cores, got " +
                   std::to_string(numCores);
        if (placementIsPaperShaped() && numCores < 2)
            return "numCores: the paper-4x3 placement (and D-NUCA's "
                   "bankset columns) need an even core count >= 2; got " +
                   std::to_string(numCores) +
                   " (use --placement tiled for a single-core mesh)";
        if (!(e = pow2(l2Banks, "l2Banks")).empty())
            return e;
        if (l2Banks > kMaxL2Banks)
            return "l2Banks: directory copy masks support at most " +
                   std::to_string(kMaxL2Banks) + " banks, got " +
                   std::to_string(l2Banks);
        if (l2Banks < numCores)
            return "l2Banks: must be >= numCores (" +
                   std::to_string(l2Banks) + " < " +
                   std::to_string(numCores) + ")";
        if (!(e = pow2(blockBytes, "blockBytes")).empty())
            return e;
        if (!(e = pow2(l1Ways, "l1Ways")).empty())
            return e;
        if (!(e = pow2(l2Ways, "l2Ways")).empty())
            return e;
        if (l2SetsPerBank() == 0 || !isPow2(l2SetsPerBank()))
            return "l2SizeBytes: bank geometry yields " +
                   std::to_string(l2SetsPerBank()) +
                   " sets per bank; must be a non-zero power of two";
        if (l1Sets() == 0 || !isPow2(l1Sets()))
            return "l1SizeBytes: geometry yields " +
                   std::to_string(l1Sets()) +
                   " L1 sets; must be a non-zero power of two";
        if (!(e = pow2(memControllers, "memControllers")).empty())
            return e;
        if ((meshCols == 0) != (meshRows == 0))
            return "meshCols/meshRows: specify both mesh dimensions or "
                   "neither";
        if (meshCols != 0 &&
            static_cast<std::uint64_t>(meshCols) * meshRows < numCores)
            return "meshCols: a " + std::to_string(meshCols) + "x" +
                   std::to_string(meshRows) +
                   " grid has fewer routers than numCores = " +
                   std::to_string(numCores);
        return "";
    }

    /** Sanity-check the configuration; returns false when inconsistent. */
    bool valid() const { return validate().empty(); }

  private:
    /** Does the selected placement use the paper's two-core-row shape? */
    bool
    placementIsPaperShaped() const
    {
        return placement.empty() || placement == "paper-4x3";
    }
};

} // namespace espnuca

#endif // ESPNUCA_COMMON_CONFIG_HPP_
