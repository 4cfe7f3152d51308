package lowerbound

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

// The golden digests pin every construction that E4, E12, the benchmarks
// and this package's tests build, byte for byte: a change to the builders'
// replay order, delivery rules or bookkeeping that alters any output shows
// here before it shows as a shifted table.

// hashGraph writes every adjacency row of g, in row order.
func hashGraph(h hash.Hash, g *graph.Graph) {
	fmt.Fprintf(h, "graph n=%d undirected=%v\n", g.N(), g.Undirected())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "%d:%v\n", v, g.Out(v))
	}
}

// hashInformed writes InformedAt in ascending label order.
func hashInformed(h hash.Hash, informedAt map[int]int, n int) {
	fmt.Fprintf(h, "informed %d\n", len(informedAt))
	for v := 0; v < n; v++ {
		if t, ok := informedAt[v]; ok {
			fmt.Fprintf(h, "%d@%d\n", v, t)
		}
	}
}

func constructionDigest(c *Construction) string {
	h := sha256.New()
	fmt.Fprintf(h, "N=%d D=%d K=%d LMax=%d forced=%v steps=%d jam=%d/%d/%d\n",
		c.N, c.D, c.K, c.LMax, c.Forced, c.StepsSimulated, c.JamSilent, c.JamSingle, c.JamCollision)
	fmt.Fprintf(h, "TBound=%v\n", c.TBound)
	for i, l := range c.Layers {
		fmt.Fprintf(h, "L%d prime=%v star=%v\n", i, l.Prime, l.Star)
	}
	fmt.Fprintf(h, "last=%v\n", c.LastLayer)
	hashGraph(h, c.G)
	hashInformed(h, c.InformedAt, c.G.N())
	return hex.EncodeToString(h.Sum(nil))
}

func directedDigest(c *DirectedConstruction) string {
	h := sha256.New()
	fmt.Fprintf(h, "CrossAt=%v removed=%d\n", c.CrossAt, c.Removed)
	for i, l := range c.Layers {
		fmt.Fprintf(h, "L%d=%v\n", i, l)
	}
	hashGraph(h, c.G)
	hashInformed(h, c.InformedAt, c.G.N())
	return hex.EncodeToString(h.Sum(nil))
}

type goldenCase struct {
	p     radio.DeterministicProtocol
	n, d  int
	heavy bool // skipped under -short
	want  string
}

func TestConstructionGolden(t *testing.T) {
	rr, ss := det.RoundRobin{}, det.SelectAndSend{}
	inter := det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{})
	cases := []goldenCase{
		// E4 (full scale, and its quick point), the unit tests and
		// BenchmarkAdversaryBuild (select-and-send at 1024/64).
		{rr, 256, 16, false, "b35ccd228ed5ea3517ba13554ac1d274e62b871d22cf3530c9f7e2f04d61855e"},
		{ss, 256, 16, false, "85b29ef40545aaa28dfcc94efc1cffc17f33edd06096fdd4f398efd56cba3ca2"},
		{rr, 512, 32, false, "e9d412368fcfbafd60a2888014a06dd0951680a4081afab078643628dbede648"},
		{ss, 512, 32, false, "6770f118619a36460f8835cd4ac766c350448caaa36e1061dce94251a5b4d646"},
		{rr, 1024, 64, true, "7b2f897ab2b0e286a3cadae53005936ad1e00168cb10110fb18a65b9b58baeb4"},
		{ss, 1024, 64, true, "79dc3becacd3cbcf33c5e1e49ba2840931427e232f507564ba03a734ccd01dff"},
		{rr, 2048, 128, true, "f5bdaa8cc10447f34ec1089245890edfa077653e100424846b160e41387c04dc"},
		{ss, 2048, 128, true, "1506fe7d242870b96904989bb51b6cd574ec88c62d6df8291ba5b6fb9a1e8b1f"},
		{rr, 384, 24, false, "45c04589e2c693d40205dffa06ababb877546193cdc2effa8b3de16ae979bf40"},
		{ss, 384, 24, false, "f56396c6a7eed1ef1a4930db77070a629476896a2c52b97641cdf4d04e8b2b4a"},
		{inter, 384, 24, false, "90c465f766ddfed93bd75b066cf2e2747e76ee3a655297bea5d9e686280f0bb9"},
		// TestAdversarySweep's eight trials.
		{rr, 532, 28, true, "f4e44ffc1af3da1a220062c2c621f5ec2871cdc5def04110a1165474c5da5ac2"},
		{ss, 476, 28, true, "e829acec14f146275d04f5771c66338c2119b8ad5b6beca509946c1edd5bb607"},
		{inter, 320, 20, true, "1fd76199f578c2429ff95d85fc949bff6cb4c3cd8964cd277d034cb8f5a014ad"},
		{det.ObliviousDecay{Seed: 9}, 240, 12, true, "36a596b49041aad08aa4c8e299872c7dfd587c82017a43082fd2d5e3e7f6a9a0"},
		{rr, 644, 28, true, "44b680cae6e470203717d09d8bdaa98c876b1dde864b157e2da30b1cc8fa2405"},
		{ss, 546, 26, true, "910b9ecf9ec72bd4577c0dae8780b6efd0ccd47da8d91b2e626ffd82859aa4e3"},
		{inter, 672, 28, true, "ce0c8c166a0b07ef5dc83c8e34bc84df5ea0cfa6ca93450f354493c8273016cc"},
		{det.ObliviousDecay{Seed: 9}, 576, 32, true, "875e4ce8c654953112c72fe3e986a938c9237af1cbc78dcca4d527d6ad974415"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n=%d/D=%d", tc.p.Name(), tc.n, tc.d), func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy point")
			}
			c, err := Build(tc.p, Params{N: tc.n, D: tc.d, Force: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := constructionDigest(c); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

func TestDirectedConstructionGolden(t *testing.T) {
	rr := det.RoundRobin{}
	od := func(seed uint64) radio.DeterministicProtocol { return det.ObliviousDecay{Seed: seed} }
	cases := []goldenCase{
		// E12 at experiment seed 1 (victim seed 2), full scale and quick.
		{od(2), 256, 8, false, "89fb8f2fe331249f7cb1d3268e258a45d401cb194856e44f0b380f19cb5ef845"},
		{od(2), 512, 8, false, "ecd33863db86159d319540989e3f5c21dcef3b1d51979b689797561fa5522ed1"},
		{od(2), 1024, 16, true, "085693143d4547686032d7216afa1a4fe358228364c818857ed9e36766323d55"},
		{od(2), 2048, 16, true, "b4f9254c8f4024b35c75e19c4acef424fe7e4591829e7da52807954f81305961"},
		// The unit tests and BenchmarkDirectedAdversaryBuild.
		{rr, 128, 4, false, "ad2d53e1c33ecb4ed3d8a71e99bd983cd138c7641baf0758aa8ea442f4df16cf"},
		{rr, 256, 8, false, "032d99e3f91247979785911ac837d5269fdfdbe95ad267bb8a775fa41fbe352a"},
		{od(3), 192, 6, false, "6a4a3327eecf6f88cc5f64774d6a1ce8c3431cd955830e50a06f5ed6d5144800"},
		{od(5), 256, 8, false, "9932c1d701ee72bf22540b65172a5d654def98d8b2c1a1dc78945afdb515b7aa"},
		{od(7), 512, 8, false, "1c52f717f0562ad14945ae6094afb8b359b92ad4ae875b3eea25d2fbc54beb66"},
		// TestDirectedAdversarySweep's six trials.
		{rr, 130, 10, true, "0a9383b2a9cdde93ecbf5837e5ac741f81bd7b2884db15cbf64707aed706693c"},
		{od(1), 133, 7, true, "5f23a30eafd69218d6543a2f05de24006e7ac48bde743c1ad38727aaca9900e2"},
		{od(2), 189, 7, true, "ddb512760117a3af6fd5eef3006a7a5898149f1838e414b1a49de7b7b9b4d6d3"},
		{rr, 200, 8, true, "6fa36d7f062fe9e6a60d08a426a6b88e17ab3a7f067c9f1509f28bf86a0fdc08"},
		{od(1), 90, 5, true, "ae13d070dfe588c2ba424b3cd61069d10dd09359c049db0a3e25bed88e6ae7f2"},
		{od(2), 200, 8, true, "685aec26fc7cba7bff9226de1449180b2400171484aeae45295c7c1f66bca885"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n=%d/D=%d", tc.p.Name(), tc.n, tc.d), func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy point")
			}
			c, err := BuildDirectedLayered(tc.p, DirectedParams{N: tc.n, D: tc.d})
			if err != nil {
				t.Fatal(err)
			}
			if got := directedDigest(c); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
