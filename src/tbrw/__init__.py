"""Simulation laboratory for tree-builder random walks."""

from .engine import (RootedTree, SimState, Trajectory, make_initial, run,
                     run_arrays)
from .schedules import (LeafLaw, bernoulli, build_alternating, converging,
                        decaying, iid, schedule_from_json)
from .stopping import (CensoredTime, RenewalRecord, detect_ladder_times,
                       detect_renewals, hitting_time, parent_return_times,
                       renewal_blocks)

__version__ = "0.1.0"
