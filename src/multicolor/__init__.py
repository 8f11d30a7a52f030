"""One-shot distributed multicoloring of interference graphs.

Every node picks a set of colors after a single message exchange with its
neighbors, adjacent color sets never intersect, and each node keeps a
guaranteed share of the palette. Colors map one-to-one onto TDMA frame
slots.
"""

from .coloring import Multicoloring, coloring_from_json, coloring_to_json
from .errors import (
    ContractViolation,
    Incomplete,
    Infeasible,
    InvalidParams,
    MulticolorError,
    NotFound,
    ParseError,
    RefusedInvalid,
    TooLarge,
)
from .graph import (
    Graph,
    OneHopView,
    disjoint_stars,
    format_edge_list,
    gnp_graph,
    parse_edge_list,
    unit_disk_graph,
)
from .gf import next_prime
from .permcolor import (
    OrderFamily,
    RandomDraws,
    certified_family,
    certify_family,
    generate_draws,
    randomized_palette_size,
    run_randomized,
    run_shared,
    select_by_orders,
    select_colors,
    shared_palette_size,
)
from .algebraic import (
    TowerParams,
    WeightedScheme,
    build_weighted_scheme,
    choose_tower,
    clamp_depth,
    run_basic,
    run_weighted,
    tower_colors,
    weighted_colors,
)
from .simulator import (
    NodeEnvelope,
    NodeProgram,
    RoundTrace,
    replay_view,
    run_one_shot,
)
from .verifier import (
    NeighborhoodCertificate,
    NeighborhoodGraph,
    VerificationReport,
    certify_on_neighborhood,
    chromatic_number,
    neighborhood_graph,
    verify,
)
from .tdma import (
    TdmaSchedule,
    schedule_from_json,
    schedule_to_csv,
    schedule_to_json,
    to_schedule,
    utilization,
)

__version__ = "0.1.0"
