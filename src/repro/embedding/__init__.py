"""Embedding-table training substrate: tables, optimiser, DLRM and XLM-R models."""

from repro.embedding.dlrm import DLRMModel
from repro.embedding.optim import SparseSGD
from repro.embedding.secure_loader import SecureEmbeddingStore
from repro.embedding.table import EmbeddingTable
from repro.embedding.trainer import ObliviousEmbeddingTrainer, TrainingReport
from repro.embedding.xlmr import XLMRClassifier

__all__ = [
    "EmbeddingTable",
    "SparseSGD",
    "SecureEmbeddingStore",
    "DLRMModel",
    "XLMRClassifier",
    "ObliviousEmbeddingTrainer",
    "TrainingReport",
]
