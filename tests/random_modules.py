"""Seeded pseudo-random modules for tests; the package itself draws none."""

from qfab import modules as md

# The draws random_module makes before it falls back to a simple module.
RANDOM_MODULE_ATTEMPTS = 40


def random_module(A, rng, max_total_dim=8):
    """A pseudo-random module: a submodule of a random projective generated
    by random elements, re-drawn until the size cap is met."""
    for _ in range(RANDOM_MODULE_ATTEMPTS):
        v = A.vertices[rng.randrange(A.n_vertices)]
        P = md.projective_module(A, v)
        if P.total_dim == 0:
            continue
        nseeds = 1 + rng.randrange(2)
        seeds = []
        for _ in range(nseeds):
            w = rng.randrange(A.n_vertices)
            if P.dims[w] == 0:
                continue
            vec = [A.field.coerce(rng.randrange(-3, 4)) for _ in range(P.dims[w])]
            seeds.append((w, vec))
        if not seeds:
            continue
        M, _ = md.submodule_generated_by(P, seeds)
        if 0 < M.total_dim <= max_total_dim:
            return M
    return md.simple_module(A, A.vertices[rng.randrange(A.n_vertices)])
