"""Graph-aware contrastive retrieval for industrial plant logs.

The package turns raw maintenance logs and functional-location records
into a knowledge graph, trains shallow graph embeddings over it, mines
contrastive triplets from embedding neighborhoods, and fine-tunes a
hashed bag-of-features text encoder in two stages for plant-scale
semantic search.
"""

from .ann import FlatIndex, build_index, knn
from .encoder import (
    EncoderParams,
    encode,
    encode_batch,
    featurize,
    featurize_many,
    init_encoder,
    load_encoder,
    save_encoder,
)
from .graph_embed import (
    EmbeddingTable,
    GETrainConfig,
    InitMode,
    LPReport,
    eval_link_prediction,
    init_embeddings,
    load_embeddings,
    save_embeddings,
    score_edge,
    split_edges,
    train_graph_embeddings,
)
from .ir_eval import (
    Benchmark,
    BenchmarkPlant,
    EvalReport,
    Query,
    ap_at_k,
    evaluate_run,
    ndcg_at_k,
    rank_corpus,
    rr_at_k,
)
from .kg import (
    Edge,
    GraphInvariantError,
    KnowledgeGraph,
    LexicalMatcher,
    Node,
    NodeKind,
    Relation,
    build_graph,
    expand_context,
    load_graph,
    predict_links,
    save_graph,
)
from .losses import NonFiniteError, cosine, mnr_loss_grad
from .pairs import (
    CompositionReport,
    CorpusStats,
    EncoderCosineScorer,
    PairLabel,
    PairSource,
    QueryDocPair,
    compose_dataset,
    generate_query,
    load_pairs,
    quality_filter,
    save_pairs,
    triplets_to_pairs,
)
from .synth import GeneratedPlant, PlantConfig, generate_multi_plant, generate_plant
from .train import (
    BiEncoderConfig,
    DocSimConfig,
    TrainResult,
    effective_lr,
    train_biencoder,
    train_docsim,
)
from .triplets import (
    NegKind,
    SamplingParams,
    Triplet,
    TripletSet,
    band_sample,
    load_triplets,
    sample_triplets,
    save_triplets,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kg
    "Node", "Edge", "NodeKind", "Relation", "KnowledgeGraph",
    "GraphInvariantError", "LexicalMatcher",
    "load_graph", "save_graph", "build_graph", "predict_links", "expand_context",
    # encoder
    "EncoderParams", "featurize", "featurize_many", "init_encoder", "encode", "encode_batch",
    "save_encoder", "load_encoder",
    # losses
    "NonFiniteError", "cosine", "mnr_loss_grad",
    # graph_embed
    "InitMode", "GETrainConfig", "EmbeddingTable", "LPReport",
    "init_embeddings", "score_edge", "train_graph_embeddings",
    "split_edges", "eval_link_prediction", "save_embeddings", "load_embeddings",
    # ann
    "FlatIndex", "build_index", "knn",
    # triplets
    "NegKind", "SamplingParams", "Triplet", "TripletSet",
    "band_sample", "sample_triplets", "save_triplets", "load_triplets",
    # train
    "DocSimConfig", "BiEncoderConfig", "TrainResult", "effective_lr",
    "train_docsim", "train_biencoder",
    # pairs
    "PairLabel", "PairSource", "QueryDocPair", "CorpusStats",
    "EncoderCosineScorer", "generate_query", "quality_filter",
    "triplets_to_pairs", "compose_dataset", "save_pairs", "load_pairs",
    # ir_eval
    "Query", "BenchmarkPlant", "Benchmark", "EvalReport",
    "ap_at_k", "rr_at_k", "ndcg_at_k", "rank_corpus", "evaluate_run",
    # synth
    "PlantConfig", "GeneratedPlant", "generate_plant", "generate_multi_plant",
]
