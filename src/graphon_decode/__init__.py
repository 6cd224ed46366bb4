"""Stimulus decoding on stochastic block spiking networks.

Pipeline: sample a four-block random graph, simulate conductance-based
integrate-and-fire dynamics under cluster-targeted pulses, project the
normalized spike-count responses onto graph eigenvectors, the eigenfunctions
of the four-block limit kernel (constant on each quarter, so a 4x4 matrix
problem), or principal components, and classify the stimulus.
"""

__version__ = "0.1.0"

from . import sbm, graphon, lif, protocols, embedding, classify, experiment
