// Channel relabelling: channel ids are arbitrary names, so two allocations
// that put the same items together can still disagree on every label. A
// fresh plan is only comparable with the program on air — and only cheap for
// clients to follow — after its channels are renamed to overlap the old ones
// as much as possible.
#pragma once

#include <span>
#include <vector>

#include "model/item.h"

namespace dbs {

/// \brief The renaming of `plan`'s channels that keeps the most items where
/// `reference` has them: label[c] is the new id of plan channel c, a
/// permutation of 0..K−1 that maximises Σ_x [label[plan[x]] == reference[x]].
/// Solved exactly with the Hungarian method on the K×K overlap counts,
/// O(N + K³); ties resolve deterministically. Requires equal lengths and
/// every entry < channels.
std::vector<ChannelId> match_channels(std::span<const ChannelId> reference,
                                      std::span<const ChannelId> plan,
                                      ChannelId channels);

}  // namespace dbs
