"""Weighted-mean aggregation terms on random graphs.

The package covers the full pipeline: a small term language over graph
neighborhoods (terms, parser, evaluate), message-passing and transformer
architectures compiled into that language (architectures), random graph
models with size-dependent edge schedules (graphs), predictors for the
constants the terms converge to on growing graphs (dense_limit,
sparse_limit, census), the exact extension-pattern weights behind the dense
limit (graphtypes, which no predictor calls), and a sweep harness with
CSV/SVG reports plus the `aggterm` command line (harness, cli).
"""

from .architectures import (ArchConfig, CompiledModel, WeightSet,
                            compile_architecture, init_weights,
                            reference_forward)
from .census import CensusTable, is_sparse_class, neighborhood_census
from .canonical import canonical_code, canonical_labeling, decode_code
from .config import (arch_from_spec, arch_to_spec, canonical_json,
                     features_from_spec, features_to_spec, model_from_spec,
                     model_to_spec, schedule_from_spec, schedule_to_spec,
                     spec_digest)
from .dense_limit import DenseController, dense_controller, dense_limit_p
from .errors import (AggtermError, ConfigError, EvaluationError,
                     NeighborhoodTooLargeError, UnsupportedTermError)
from .evaluate import eval_closed, eval_nodewise, eval_term
from .graphs import (AlternatingSchedule, BaModel, BernoulliFeatures,
                     ConstantFeatures, DenseSchedule, ErModel, FeaturedGraph,
                     LogSchedule, PaddedFeatures, RootSchedule, RootedGraph,
                     SbmModel, SparseSchedule, Uniform01, UniformRange,
                     attach_features, draw_features, eval_schedule,
                     feature_dim, from_edges, read_graph, rooted_neighborhood,
                     sample_graph, write_graph)
from .graphtypes import GraphType, alpha_weight_exact, enumerate_extensions
from .harness import (ParityGap, SizeSummary, SweepConfig, SweepReport,
                      diverge_demo, read_report_csv, run_sweep,
                      summarize_outputs, write_plot_svg, write_report_csv,
                      write_summary_csv)
from .mc import ControllerValue, batch_stderr, block_slices
from .parser import ParseError, parse_term, print_term
from .registry import FunctionRegistry, default_registry
from .rng import stream
from .rw import rw_encoding, rw_encoding_all
from .sparse_limit import CensusConfig, sparse_limit
from .terms import (Apply, Const, Feature, GcnAgg, GlobalWMean, LocalWMean,
                    Rw, Term, contains_gcn, free_vars, reach, substitute,
                    validate_term)

__version__ = "0.1.0"
