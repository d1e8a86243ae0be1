"""repro: proteome-scale protein structure prediction workflows.

A full reproduction of Gao et al., "Proteome-scale Deployment of Protein
Structure Prediction Workflows on the Summit Supercomputer" (IPDPS
Workshops 2022), with every hardware/data-gated dependency replaced by a
synthetic substrate that exercises the same code paths (see DESIGN.md).

Subpackages
-----------
``sequences``  synthetic proteomes, families, FASTA I/O
``structure``  structure model, TM-score/SPECS, alignment, fold library
``msa``        k-mer homology search, sequence libraries, features
``fold``       surrogate AlphaFold2: recycling, confidence, memory model
``relax``      molecular-mechanics relaxation, violations, protocols
``cluster``    Summit/Andes machine models, batch scheduler, cost model
``dataflow``   Dask-like scheduler/workers (threaded, process + simulated)
``iosim``      parallel-filesystem contention and replication model
``core``       the paper's pipeline: presets, stages, deployment plans
``analysis``   proteome summaries, structural annotation, novelty
"""

__version__ = "1.0.0"

from . import constants
from .cache import FeatureCache

__all__ = ["constants", "FeatureCache", "__version__"]
