// The block-decomposed driver: both "mpi-2d" (§IV-A) and "mpi-2d-LB"
// (§IV-B) of the paper. Each rank owns one block of a 2-D
// decomposition, moves the particles residing in it and routes
// emigrants to their owners after every step. With RunConfig::lb.every
// == 0 the bounds stay static — the baseline the other implementations
// are measured against. Otherwise every `lb.every` steps the movable
// column/row bounds are repartitioned by any bounds-capable
// lb::Strategy from the registry (RunConfig::lb.strategy). The default,
// "diffusion", is the paper's scheme à la Cybenko: per-processor-column
// loads are aggregated and adjacent columns whose loads differ by more
// than a threshold exchange border cell-columns (grid data and the
// particles residing there). "rcb" instead jumps straight to the
// globally bisected partition; "adaptive" wraps either behind a cost
// model. Mesh subgrids really travel (and are integrity-checked) for
// every boundary move, adjacent or not.
#pragma once

#include "par/run_config.hpp"

namespace picprk::par {

/// Runs the block driver; collective over `comm`. The returned result is
/// identical on every rank. The strategy spec defaults to "diffusion"
/// when RunConfig::lb.strategy is empty; specs that cannot move bounds
/// are rejected. RunConfig::impl names the trace process row.
DriverResult run_block(comm::Comm& comm, const RunConfig& config);

}  // namespace picprk::par
