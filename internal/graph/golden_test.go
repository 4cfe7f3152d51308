package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"adhocradio/internal/rng"
)

// goldenGenerators builds one topology per generator from a seed. Random
// generators draw from rng.New(seed); deterministic ones derive their size
// from it, so every seed is a distinct graph. RandomRegular is small and
// dense enough to need stub repairs, and UnitDisk sparse enough to need
// connectivity patches, so the digests pin those code paths too.
var goldenGenerators = []struct {
	name  string
	build func(seed int, src *rng.Source) (*Graph, error)
}{
	{"path", func(s int, _ *rng.Source) (*Graph, error) { return Path(10 + 7*s), nil }},
	{"star", func(s int, _ *rng.Source) (*Graph, error) { return Star(5 + 4*s), nil }},
	{"clique", func(s int, _ *rng.Source) (*Graph, error) { return Clique(6 + 3*s), nil }},
	{"complete", func(s int, _ *rng.Source) (*Graph, error) { return CompleteLayered([]int{s, 3, s + 2, 2}) }},
	{"uniform", func(s int, _ *rng.Source) (*Graph, error) { return UniformCompleteLayered(30+11*s, 2+s) }},
	{"worst", func(s int, _ *rng.Source) (*Graph, error) { return WorstLabelCompleteLayered(30+11*s, 1+s) }},
	{"layered", func(_ int, src *rng.Source) (*Graph, error) { return RandomLayered(60, 6, 0.3, src) }},
	{"gnp", func(_ int, src *rng.Source) (*Graph, error) { return GNPConnected(50, 0.1, src), nil }},
	{"tree", func(_ int, src *rng.Source) (*Graph, error) { return RandomTree(40, src), nil }},
	{"grid", func(s int, _ *rng.Source) (*Graph, error) { return Grid(3+s, 4), nil }},
	{"disk", func(_ int, src *rng.Source) (*Graph, error) { return UnitDisk(50, 0.15, src), nil }},
	{"starchain", func(s int, _ *rng.Source) (*Graph, error) { return StarChain(s+1, 3), nil }},
	{"caterpillar", func(s int, _ *rng.Source) (*Graph, error) { return Caterpillar(s+2, 2), nil }},
	{"directed", func(_ int, src *rng.Source) (*Graph, error) { return DirectedLayered(40, 5, 0.3, src) }},
	{"cycle", func(s int, _ *rng.Source) (*Graph, error) { return Cycle(5 + s) }},
	{"wheel", func(s int, _ *rng.Source) (*Graph, error) { return Wheel(6 + s) }},
	{"bintree", func(s int, _ *rng.Source) (*Graph, error) { return CompleteBinaryTree(2 + s) }},
	{"hypercube", func(s int, _ *rng.Source) (*Graph, error) { return Hypercube(2 + s) }},
	{"barbell", func(s int, _ *rng.Source) (*Graph, error) { return Barbell(3+s, s) }},
	{"regular", func(s int, src *rng.Source) (*Graph, error) { return RandomRegular(16+2*s, 4, src) }},
}

// goldenAdjacency holds the SHA-256 of adjacencyDigest for every
// goldenGenerators entry at seeds 1, 2 and 3. Row order is part of the
// digest: the engine's delivery order, the neighbor lists handed to
// neighbor-aware programs and RandomRegular's repair picks all follow it.
var goldenAdjacency = map[string]string{
	"path/1":        "6af4636164a722141b8f144968d1b7661112f97ab969850ec6605ff81e6367a9",
	"path/2":        "fb539a763b0cf3deb5ac429bf96b3cae314cd3db864fca9a41eacdd136e88974",
	"path/3":        "0eaa455d74a4ae7d1928a4ae201b31496b7ba01654c1df7a30f07e990a9732f6",
	"star/1":        "00fbb694cca1a10e61d93e65e785508387616e6554f27ac9f24b63cce82d2b94",
	"star/2":        "d79579726206594a838c7d727d3fe6d071afdb596a7cbd79eae38c8e547aeddc",
	"star/3":        "68de7be9b4895ab9f65d01ca4f97feabdf642b7345d7fe7df0e78e4ba9211ba2",
	"clique/1":      "74f631a321e2d3adbcdd596ae14dc5c641db62619d9bad42d5ae3ce5c2741812",
	"clique/2":      "60dbe61cf8e281ef165933bc2b4f082ee50a04c445274f0ef52c8ea2ead7260a",
	"clique/3":      "117d7a29aa4c668b148c3553dd54268990300b09e48918e3f3f2db28bb5eda50",
	"complete/1":    "2b542ac28f8991b0e5d86fb1f453c8fe34d31a156eb196857554db2609c41e48",
	"complete/2":    "4f612d2db42858c8fbdce67e2e739e2a792ef1d4de0891163bcc3ef5f2fee63b",
	"complete/3":    "4cdddc4a469e7c9b4f40dba8c414e6d68805effec071e237611f06c5ee94e3c2",
	"uniform/1":     "16d108d638ff7f9035ecb4632f2a305638cbaac68900705255ea537b3563df51",
	"uniform/2":     "202a565871b0ff44cd75f2be50bdb19d87779163576edae67097e83235912e34",
	"uniform/3":     "9f206d48857d11898320ddec52663f114aca184028ed6221f8f7c6c6494a60e9",
	"worst/1":       "6d6211e7add20a2d79720c78b9c7636246a8b868a13b1b5e3d2448942c14c343",
	"worst/2":       "ca7dd9c1514916bf0684b2779bc447958a25af0a89e5376fb1591668ac06a713",
	"worst/3":       "4825554e16b366603161587b5e6447d4b59d047d736ebde3a092b09815b0902e",
	"layered/1":     "a8be0a5112e6c318dd89d6981ab0efce9d8245ee0afdd9a0332494c0d15a499a",
	"layered/2":     "769ebe604d3e9a9df719d9a219690f7a30d5868956b5c977fd908781064196d2",
	"layered/3":     "f79ed9e5e33881505558b7b211f5962ad1df151bfc16fc1b8299da9bc4489352",
	"gnp/1":         "8d131e9b02e028d23f38b0f559b64ad0641bce389e9a51f73b2fd542287d3a6a",
	"gnp/2":         "7b6a9371f091109d78131e13f46c25cfc2f6b525dd5c3af68e3cd4e2ada065ae",
	"gnp/3":         "e0e9c13239261b35f1e4d1aba4acb7482934b983f8fcf4961cbb17324239f3f6",
	"tree/1":        "104c29599ba7ad808e10cdfcec8d0fa7cbb0fa33f4d56ac1fe4ff43391a8adf1",
	"tree/2":        "6f33c4791baba1b301bebc4004ea39eb5c74bf539a6f39f5382b4b7ca6f5de67",
	"tree/3":        "c4fd438028923399d5d8b342adcd22a07373d330dac38705f4270bfc22d46cbe",
	"grid/1":        "c0409473b9d0a8beb75f2feb3aa1236320b12ea7e19d6648305fea31f21127f4",
	"grid/2":        "a4952061a9b8b8ad031a4e8e48ece355d2b4410953fa2479ed9e0675022b1d86",
	"grid/3":        "8016794786516af58c5c4ddb9185eb1141382ed554e4985dd545e6f45c8585bd",
	"disk/1":        "554a19fd3cb44419c90963b033aeae856a8a73ba530a90a43739409ecc5649e8",
	"disk/2":        "c82e869fc0ba096ec4e5b4d3378f0fdddf9a9575f5e9edcbc7720e7aa79baaf2",
	"disk/3":        "484623650fb62d7d7aca9f8f12ac518e40967a5b86b56e36e4d469bc9483bd24",
	"starchain/1":   "0e09f1f93a5b6ace6ff2b3a40fe8e97aaf3a48e237f7d241449f6b2d8b49ab4d",
	"starchain/2":   "6e87e548ae1f5b87c237934e79d9f18916c2db8f4be27b5b98269bc1438f003d",
	"starchain/3":   "bc1925cc6531ebcbcab8c2d10ec6a041bc54207abd5f688d473c9f69b6dea3da",
	"caterpillar/1": "ad98919abcdfc5a4591ad46ef566da7ca516ac0ca58790ef44b61ffc5630b5e7",
	"caterpillar/2": "6dc58c1b5b4ab2728fe8841c9da0b99cc681123aaf800de4e15494344b68ad0c",
	"caterpillar/3": "c9ffbe2271b587ee34758e818fb289c8092cfc0d60e16f3537ecf2c7c4332b89",
	"directed/1":    "82d8dec379a84f1e05b8a2c68963d4f8d73c499facb5b9ec69ebe1d423108b25",
	"directed/2":    "5e82c2a4f7db6e0409b4321d6f3f68ba5a51e133a1a23038ef1d8202b8a24a13",
	"directed/3":    "028c43081bed84a3aae2c7ecdc87886ba451f2c51740fb7b4b081ffaf5f22dee",
	"cycle/1":       "ec5e85e38bfa52b428a214f1083d88037986e4ce7ac249c40629c467f0a3c5a9",
	"cycle/2":       "5e268944a6a1b7a63e5b33361b32ff2a7cd20ae9e788d80d87e3c0f8a8de082b",
	"cycle/3":       "cb196bf74e55b431e438f6da7373e98dc26b7cda8f6bca555daa2af2e9348533",
	"wheel/1":       "e74c61b42cdaf1400a9d72a01b713041bef2a9ded1519fd1ce36b8efeb8eae05",
	"wheel/2":       "73670f87b787f54429cad829e015501755fa8e20f6506496d9b50733dc45af28",
	"wheel/3":       "b629418d6f9dc0b8975ea60d737dd771315fb0e23d352cae69c59c653e74a2bd",
	"bintree/1":     "8f43292ede7e73a03686d6ab429cc4e9a0599100c3112b66dfdf0704a813f9f6",
	"bintree/2":     "073c5866926c026f9bcd508f34ca46a016fa399fb7022a55bf43e54e67a3dc2b",
	"bintree/3":     "0bef06d0a0bb4f21ecbcef651ac1e9cca35a163666a909a61a8c277958b89f73",
	"hypercube/1":   "3f905b0638434564c62cbed870729a8866107924c1aa563303d1693ef26b5ca3",
	"hypercube/2":   "ca2401d440ee03447b28f8955110dc537aa9a97eb54890667b65b0861a412b61",
	"hypercube/3":   "45e7e5e3b5bb148029009e308624e204aaf9b7c2de84a9cab1be03d5984c2880",
	"barbell/1":     "21a5898c4c7746a35adf71d38b88b823f96f9bf6f916f9bd152fb60d525cace4",
	"barbell/2":     "e6e7c5a0ca30242cbce6ffeb12b7320afa864916d70c4599f4ef4a272af46be7",
	"barbell/3":     "8c7d2565e8b07ba73f80e62843ae0b0bf9fba5b54763c8e80b6169abce7e2ebe",
	"regular/1":     "b4743206a65df7be111d99b32d647b43055a4cf663a7f78e75803f1e43324c2d",
	"regular/2":     "0b65384df214751975040d4c68bb3e06714bfe46b2bf8dedd51b5df26e9ef01e",
	"regular/3":     "334c36b7c24be6774fe1c97a4743e9bfd05e0ac25c98e630b267f2d1bcce433e",
}

// putInts writes xs to h as little-endian 32-bit words.
func putInts[T int | int32](h hash.Hash, xs []T) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
}

// adjacencyDigest hashes the node count, the kind, the CSR arrays and
// every Out and In row in order.
func adjacencyDigest(g *Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d undirected=%v\n", g.N(), g.Undirected())
	c := g.Compile()
	putInts(h, c.OutOff)
	putInts(h, c.OutAdj)
	putInts(h, c.InOff)
	putInts(h, c.InAdj)
	for v := 0; v < g.N(); v++ {
		putInts(h, g.Out(v))
		putInts(h, g.In(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorAdjacencyGolden pins every generator's output, row order
// included, so a change to how graphs are built cannot silently change a
// topology, the random draws behind it, or the order its rows are read in.
func TestGeneratorAdjacencyGolden(t *testing.T) {
	for _, gen := range goldenGenerators {
		for seed := 1; seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", gen.name, seed)
			g, err := gen.build(seed, rng.New(uint64(seed)))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := adjacencyDigest(g); got != goldenAdjacency[key] {
				t.Errorf("%s: adjacency digest %s, want %s", key, got, goldenAdjacency[key])
			}
		}
	}
}
