//! Figure 12: the details of the top 10 most frequent 3-topologies
//! relating Proteins and DNAs — "all these topologies have a relatively
//! simple structure; most of them are no more complicated than a path".

use ts_bench::{build_env, header, motif, EnvOptions};
use ts_core::{EsPair, RankScheme};

fn main() {
    let env = build_env(EnvOptions::default());
    header("Figure 12 — top 10 most frequent 3-topologies relating Proteins and DNAs");

    let pd = EsPair::new(env.biozon.ids.protein, env.biozon.ids.dna);
    let ranked = env.catalog.ranked(RankScheme::Freq, pd);

    println!("{:<6} {:>8} {:>7} {:>7} {:>6}  structure", "rank", "freq", "nodes", "edges", "path?");
    let mut simple = 0;
    for (rank, tid) in ranked.iter().take(10).enumerate() {
        let meta = env.catalog.meta(*tid);
        let is_path = meta.path_sig.is_some();
        if is_path {
            simple += 1;
        }
        println!(
            "{:<6} {:>8} {:>7} {:>7} {:>6}  {}",
            rank + 1,
            meta.freq,
            meta.graph.node_count(),
            meta.graph.edge_count(),
            if is_path { "yes" } else { "no" },
            motif(&env, *tid)
        );
    }
    println!(
        "\n{simple}/10 of the most frequent topologies are plain paths \
         (paper: 'most of them are no more complicated than a path')"
    );
}
