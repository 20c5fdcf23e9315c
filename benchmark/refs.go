package main

import (
	"ygm/internal/apps"
	"ygm/internal/graph"
)

// The references are plain single-threaded programs over the same
// generated inputs. The parent computes each once per invocation and
// checks every repetition against it; the ladder times them as the
// serial baselines.

type wordRef struct {
	distinct, digest uint64
}

// serialWordcount counts the word stream in one map and digests the
// table exactly as the distributed program does.
func serialWordcount(seed int64, words uint64) wordRef {
	counts := make(map[string]*uint64)
	key := make([]byte, 0, 16)
	for g := uint64(0); g < words; g++ {
		key = appendWord(key[:0], wordID(seed, g, wordVocab))
		if c, ok := counts[string(key)]; ok {
			*c++
			continue
		}
		one := uint64(1)
		counts[string(key)] = &one
	}
	ref := wordRef{distinct: uint64(len(counts))}
	for word, c := range counts {
		ref.digest += wordDigest(word, *c)
	}
	return ref
}

type bfsRef struct {
	visited  uint64
	levels   int
	distHash uint64
}

// serialBFS regenerates every rank's RMAT stream, builds the adjacency
// lists and searches from the root with a queue.
func serialBFS(cfg apps.BFSConfig, world int) bfsRef {
	n := uint64(1) << uint(cfg.Scale)
	adj := make([][]uint64, n)
	for r := 0; r < world; r++ {
		g := graph.NewRMAT(cfg.Params, cfg.Scale, cfg.Seed*15485863+int64(r))
		for k := 0; k < cfg.EdgesPerRank; k++ {
			e := g.Next()
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = apps.Unreached
	}
	dist[cfg.Root] = 0
	queue := []uint64{cfg.Root}
	var deepest uint64
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] == apps.Unreached {
				dist[v] = dist[u] + 1
				deepest = max(deepest, dist[v])
				queue = append(queue, v)
			}
		}
	}
	// apps.BFS expands one frontier per level, the last one empty.
	ref := bfsRef{levels: int(deepest) + 1}
	for v, d := range dist {
		if d != apps.Unreached {
			ref.visited++
		}
		ref.distHash += bfsDistHash(uint64(v), d)
	}
	return ref
}
