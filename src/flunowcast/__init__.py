"""Search-query influenza nowcasting: lagged correlation screening,
greedy query selection, weekly-updated least-squares nowcasts, and
table/figure emission, with a seeded synthetic-data generator."""

__version__ = "0.1.0"
