"""Compatibility-matrix-aware graph learning.

Core objects: Graph (CSR, immutable), CompatibilityMatrix (row-stochastic
class-to-class neighbor distribution), a numpy reverse-mode autodiff, a
declarative message-passing algebra with classic presets, a
prototype-guided model that estimates its own compatibility matrix while
training, a synthetic generator with prescribed compatibility structure,
and a benchmark harness.
"""

from .errors import ConfigError, DataError, NumericalError, TrainingDiverged
from .graph import (Graph, Split, generate_splits, load_dataset, load_split,
                    load_splits, permute_graph, save_dataset, save_splits)
from .metrics import (CompatibilityMatrix, edge_homophily, node_homophily,
                      observed_cm, semantic_neighborhood)
from .sparse import (add_self_loops, khop_adjacency, knn_feature_graph,
                     row_normalize, sym_normalize)
from .mp import (ChannelSpec, LayerSpec, MessagePassingModel, ModelSpec,
                 PRESETS, aggregate, build_preset, realize_channel)
from .model import (CMEstimate, CompatGNN, build_prototypes, confidence,
                    degree_weight, estimate_cm, supplementary_guidance)
from .training import RunConfig, RunResult, accuracy, build_model, train_model
from .synth import (SynthSpec, build_target_cm, gaussian_features,
                    generate_graph, make_synth_spec, verify_graph)
from .bench import (BenchReport, degree_report, format_mean_std, random_search,
                    run_bench)
from .gradcheck import grad_check
from .optim import Adam
from .rng import derive_seed, make_rng

__version__ = "0.1.0"
