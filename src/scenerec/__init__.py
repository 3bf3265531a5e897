"""Music-scene recommendation testbed.

Artist catalogs with popularity scores and genre tags, two recommenders
trained on an artist-artist similarity graph (weighted matrix factorization
and an autoencoder), and a simulated-user benchmark that measures ranking
accuracy per popularity range.
"""

__version__ = "0.1.0"
