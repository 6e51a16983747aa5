package baseline

import (
	"testing"

	"repro/internal/merkle"
	"repro/internal/workload"
)

// BenchmarkMerkleProve and BenchmarkMerkleVerify time the state-signing
// baseline's merkle tree (E12) over 4096 keys: one inclusion proof, and
// one check of it against the signed root. No replica of the protocol
// builds a tree; its batch stamps sign one hash.
func BenchmarkMerkleProve(b *testing.B) {
	tree := BuildTree(workload.BuildContent(4096, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Prove(i % tree.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleVerify(b *testing.B) {
	tree := BuildTree(workload.BuildContent(4096, 0))
	proof, _ := tree.Prove(1234)
	entry, _ := tree.Entry(1234)
	root := tree.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := merkle.Verify(root, entry, proof); err != nil {
			b.Fatal(err)
		}
	}
}
