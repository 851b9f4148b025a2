package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// oracleTrace is the fixed stream the recorded digests were taken on:
// variable-size msr-web with every 29th request turned into a delete
// and every 37th resized, so the delete path and the byte trackers'
// Resize path both run.
func oracleTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName("msr-web")
	if !ok {
		t.Fatal("missing msr-web preset")
	}
	tr, err := trace.Collect(p.New(0.03, 7, true), 12000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Reqs {
		switch {
		case i%29 == 28:
			tr.Reqs[i].Op = trace.OpDelete
		case i%37 == 36:
			tr.Reqs[i].Size = tr.Reqs[i].Size/2 + 1
		}
	}
	return tr
}

// curveDigest is the SHA-256 over a curve's sizes and the bits of its
// miss ratios, little-endian; "" for a nil curve.
func curveDigest(c *mrc.Curve) string {
	if c == nil {
		return ""
	}
	h := sha256.New()
	var b [8]byte
	for _, s := range c.Sizes {
		binary.LittleEndian.PutUint64(b[:], s)
		h.Write(b[:])
	}
	for _, m := range c.Miss {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCase is one model configuration's recorded curves and stream
// counters.
type digestCase struct {
	name          string
	opts          Options
	seen, sampled uint64
	object, bytes string
}

// krrDigests were recorded on oracleTrace with the former
// core.Profiler, core.BucketProfiler and core.ShardedProfiler wrappers
// (Workers 2 is the sharded one) for the krr models, and with the
// former olken.Profiler adapter for olken, and with counterstacks, che
// and fagin as they were then. The aet, statstack, shards-fixedsize,
// mimir, lfu and mru rows were recorded while aet and shards-fixedsize
// still had their filter mirrored in the adapter for Sampled and every
// kernel still carried its own ProcessAll. Every adapter now drives its
// kernel itself; the curves and counters must not move by a bit.
var krrDigests = []digestCase{
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "f1e1355c99882456257fe838be22afa0781ae647cd4d52eb2fec2cb0277c3ea4", ""},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 2}, 12000, 12000, "00f6bb3a54349486bcfb1d283fd9d0d85ef3295a316a37bea1e96d96df110abf", ""},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "8abbf062f91b8455291959dab891782fa065cfcf3b0a11138db6fb662d08c145", ""},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "64d7d3c00591422d1c2d9cefd1fa7ce0eb986a9a7bc3b8cfcb16fe1683d8b65e", ""},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0, Workers: 0}, 12000, 12000, "f1e1355c99882456257fe838be22afa0781ae647cd4d52eb2fec2cb0277c3ea4", "00a97297f2fc8f752156f3827cb443460a8a0f028642d39edf4cdd835089c614"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0, Workers: 2}, 12000, 12000, "00f6bb3a54349486bcfb1d283fd9d0d85ef3295a316a37bea1e96d96df110abf", "8b32fee59044078a7b9ebfbdf752021c3e93a08e8675849166fee2281a1a0782"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "8abbf062f91b8455291959dab891782fa065cfcf3b0a11138db6fb662d08c145", "5702c61b5f448d8544204ebdf1ef7c52e1298345613b109535946387a9db4571"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "64d7d3c00591422d1c2d9cefd1fa7ce0eb986a9a7bc3b8cfcb16fe1683d8b65e", "d751a6d0bf8a2b36b611c4db9bc9ea9144ae28006f96cfb3a4bba0c97ebebedf"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0, Workers: 0}, 12000, 12000, "f1e1355c99882456257fe838be22afa0781ae647cd4d52eb2fec2cb0277c3ea4", "bd67dd24fd97231f797cd878c9aa5ab0ca98dbf8c39a9baf5eef85c8498a0550"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0, Workers: 2}, 12000, 12000, "00f6bb3a54349486bcfb1d283fd9d0d85ef3295a316a37bea1e96d96df110abf", "d0df0afec00bf2f18864727e1cd24427d3bd4e4c25c3562b927c9d285a577d5b"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "8abbf062f91b8455291959dab891782fa065cfcf3b0a11138db6fb662d08c145", "817c042cc94752a7faf442e6bd31ae03d4278ce87630afff2384125fe8d7831f"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "64d7d3c00591422d1c2d9cefd1fa7ce0eb986a9a7bc3b8cfcb16fe1683d8b65e", "b87ecdb3427c87710a9044ec78a2e1ca3dd1f76ed1ede2139a69d87faa10881d"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0, Workers: 0}, 12000, 12000, "f1e1355c99882456257fe838be22afa0781ae647cd4d52eb2fec2cb0277c3ea4", "673dcace64683ed1e5bdadd1199582604ccaf562a861492be8344c7003e0584c"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0, Workers: 2}, 12000, 12000, "00f6bb3a54349486bcfb1d283fd9d0d85ef3295a316a37bea1e96d96df110abf", "57df92899c6089a5e4b628802452b5cfbff203ad4a32f8e9bc0fa57e4cadeda9"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "8abbf062f91b8455291959dab891782fa065cfcf3b0a11138db6fb662d08c145", "8be890f18fea2c0e5a68d8b3b6446ef526214083a0deec0e388f472a69094c72"},
	{"krr", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "64d7d3c00591422d1c2d9cefd1fa7ce0eb986a9a7bc3b8cfcb16fe1683d8b65e", "1a00459df2824fa02a21c48cc1926aef6b7808212e40270c610eb9eadf135e82"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "748c3bcb2be36a7015df501528f75d8cb9563d8831d0c5379b2b5ff875774988", ""},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 2}, 12000, 12000, "a93b8e3907964534663fbb0c0bb468463eef97664960ca0950ade777331f5d05", ""},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "212e4038917e7666afe0dee016b237f45b67dc7f8cce703bbf2cc181313d07a5", ""},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "c6e50837899f099d0f704a25f909c88d55e60a1a4ee32f5544544699f172af98", ""},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0, Workers: 0}, 12000, 12000, "748c3bcb2be36a7015df501528f75d8cb9563d8831d0c5379b2b5ff875774988", "4365d3a92deec86f4e878bbed5f9319d61ec9e021293b4f0d879fd5aeb693d1f"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0, Workers: 2}, 12000, 12000, "a93b8e3907964534663fbb0c0bb468463eef97664960ca0950ade777331f5d05", "389d78caa456779015b406ac8ab6d0407de783e48d943476599a74d50cf91ef9"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "212e4038917e7666afe0dee016b237f45b67dc7f8cce703bbf2cc181313d07a5", "af0eeb61bb9d3e056025db7e5c7584c6a6a5cc49575bbd89cff9f056999ee6aa"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "c6e50837899f099d0f704a25f909c88d55e60a1a4ee32f5544544699f172af98", "3a281f2a216ae6895ae84610f238b82d91deed207597fc708f34278b39c514d9"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0, Workers: 0}, 12000, 12000, "748c3bcb2be36a7015df501528f75d8cb9563d8831d0c5379b2b5ff875774988", "d9e4bcda291c8b3fb33193eecc263fb2eca274fb62142e340bc30351e1964878"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0, Workers: 2}, 12000, 12000, "a93b8e3907964534663fbb0c0bb468463eef97664960ca0950ade777331f5d05", "dff0a6bbb0660d153a626dc08d579676c3e955b054f2fc40f4960562882b3ebf"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "212e4038917e7666afe0dee016b237f45b67dc7f8cce703bbf2cc181313d07a5", "5c3c5ea8b49f93ffac50db462f0ce932e1d541b6562df93fe0084dbfd8b6458a"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "c6e50837899f099d0f704a25f909c88d55e60a1a4ee32f5544544699f172af98", "8dd2165e942500981d734e046ca764cb063dc93558f590ca19c6e4c4169b3f42"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0, Workers: 0}, 12000, 12000, "748c3bcb2be36a7015df501528f75d8cb9563d8831d0c5379b2b5ff875774988", "2d51024efb724bcd41d2c2fd852d0d04deecbc51c0aba4d618b7b2a477bf8345"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0, Workers: 2}, 12000, 12000, "a93b8e3907964534663fbb0c0bb468463eef97664960ca0950ade777331f5d05", "156d81e896536e2ca01a253714976fc80e6b0f7d139977b0aeed8228462a99ae"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "212e4038917e7666afe0dee016b237f45b67dc7f8cce703bbf2cc181313d07a5", "b5bfe8b4c9014144d57a57dd8a88b7d0d6b029044f4186e1721afe7257d404e0"},
	{"krr-topdown", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "c6e50837899f099d0f704a25f909c88d55e60a1a4ee32f5544544699f172af98", "f4117c84154c6dde061576a45f7a30736c5af5b9b3534722925703e9ff9c156b"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "ca424fa8364a3455dde42d3e99a382e884a025c0403852368fd21b4feafc894c", ""},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 2}, 12000, 12000, "1841f340d71b97100efcb63daa848c5b5b656507479073ba149cea85687e90b8", ""},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "ba11c230f58b0e45c3bbc85124797aa556ac07f58f3715c5a52633ee48b72a0c", ""},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "4b1926a5e2fc064cd6c6b45932b7aafc4d23bbe80ae69c572c67b8a1ba544262", ""},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0, Workers: 0}, 12000, 12000, "ca424fa8364a3455dde42d3e99a382e884a025c0403852368fd21b4feafc894c", "e6128896df74a1d80eb32f73a75a7e2685c4d6bea622411337bc2ceb044ae30a"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0, Workers: 2}, 12000, 12000, "1841f340d71b97100efcb63daa848c5b5b656507479073ba149cea85687e90b8", "442031aec00279b5af52c7c23160cc40bcbdc6ad6a7b5ac4d446808a6a9db123"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "ba11c230f58b0e45c3bbc85124797aa556ac07f58f3715c5a52633ee48b72a0c", "086001a83ac1c9d1bf9bc4b87568efdfa98b42a070c45cb7e53b934859dcdf57"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesUniform, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "4b1926a5e2fc064cd6c6b45932b7aafc4d23bbe80ae69c572c67b8a1ba544262", "6597e58f254cd6f3e7754fb525ba209614055364d3463eafbb131c45737b36fc"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0, Workers: 0}, 12000, 12000, "ca424fa8364a3455dde42d3e99a382e884a025c0403852368fd21b4feafc894c", "2c0b6cb41a8eaa1f4249803880bb9d6e853453cbb96780e022c166df2e010070"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0, Workers: 2}, 12000, 12000, "1841f340d71b97100efcb63daa848c5b5b656507479073ba149cea85687e90b8", "ee1723c0ec8085739c7a32dcd3edfc94113322369eb3b9ebb51896929bf2d22c"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "ba11c230f58b0e45c3bbc85124797aa556ac07f58f3715c5a52633ee48b72a0c", "3da1f53a16e1ae07fd10f9bb6ea26d94d962c46fef69bf40a258ced6ad13453c"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesSizeArray, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "4b1926a5e2fc064cd6c6b45932b7aafc4d23bbe80ae69c572c67b8a1ba544262", "4d951622d5ad170870590f00acf8900d66746892121cdacc1262d2602d5e7ccc"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0, Workers: 0}, 12000, 12000, "ca424fa8364a3455dde42d3e99a382e884a025c0403852368fd21b4feafc894c", "020461255036ba48cf377b2b86e0f1774e7fd8423fdfe8961c6ab98ad262b937"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0, Workers: 2}, 12000, 12000, "1841f340d71b97100efcb63daa848c5b5b656507479073ba149cea85687e90b8", "9597b333f72be9f5c4e3da31dce220e4c2e237676e433769615c52e9e3b661d2"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "ba11c230f58b0e45c3bbc85124797aa556ac07f58f3715c5a52633ee48b72a0c", "c73da6b2f91fc3008f4605a4f2eb3625fdb1663a0bad9298029d81d4cd53111c"},
	{"krr-linear", Options{K: 5, Seed: 3, Bytes: BytesFenwick, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "4b1926a5e2fc064cd6c6b45932b7aafc4d23bbe80ae69c572c67b8a1ba544262", "92cc7c55b419ce7e495f10bcc6fe281f5513c766765130f2f9f99d19523b2884"},
	{"krr-bucket", Options{K: 5, Seed: 3, BucketRatio: 0, SamplingRate: 0}, 12000, 12000, "1b6b937c775176d12f1c214620443b93e311159dd3099f9f439d24d4432f478f", ""},
	{"krr-bucket", Options{K: 5, Seed: 3, BucketRatio: 0, SamplingRate: 0.1}, 12000, 1124, "4a28dc1565d09aae5128e9ef1aca33faaf3c8fe447048acb3acd1b6b36b20214", ""},
	{"krr-bucket", Options{K: 5, Seed: 3, BucketRatio: 1, SamplingRate: 0}, 12000, 12000, "a1e9adcd9d87eb36ec8c02a667d0b76c721357d23e8d974aca9daac992c52645", ""},
	{"krr-bucket", Options{K: 5, Seed: 3, BucketRatio: 1, SamplingRate: 0.1}, 12000, 1124, "58637b7ba5c4bbb3157706cad17be6a71167566cd19aa2a171ce16288f10cb2c", ""},
	{"krr-bucket", Options{K: 5, Seed: 3, BucketRatio: 4, SamplingRate: 0}, 12000, 12000, "0e92f4d53305db9b1c6fab48c96dc1bb51f56dc502707bfd23599794d1f2aa08", ""},
	{"krr-bucket", Options{K: 5, Seed: 3, BucketRatio: 4, SamplingRate: 0.1}, 12000, 1124, "d7d841d8896b5939d882128a1d28671c95ab34d6ef767cacdc74b8b0a2b5a343", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "4d1b8829df9eca032bb7269201d8f7d267f78396c6f2c32afb02c21cb306cd18", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 2}, 12000, 12000, "1efd3d031d23dd2b464f79ce2b22fe67765399277352917add02cb9031d6d5ec", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0, Workers: 0}, 12000, 12000, "4d1b8829df9eca032bb7269201d8f7d267f78396c6f2c32afb02c21cb306cd18", "bb825c118488e8cab381dce1b863cc886bb6a396108c2df2fea168f050b4e4ff"},
	{"olken", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0, Workers: 2}, 12000, 12000, "1efd3d031d23dd2b464f79ce2b22fe67765399277352917add02cb9031d6d5ec", "67524952f270489305381ee9e7078095cc90239ce1364d2de5aff4d3bf62dba7"},
	{"olken", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "d36b7c297b74f07a15d67b8e882ee49cd657b50a2fb2389be755d1115616d554", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "e812f0e8481743d1744a6aced60f058b6776aafc76bb592c11ddbe709d9acef2", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "d36b7c297b74f07a15d67b8e882ee49cd657b50a2fb2389be755d1115616d554", "8b574263d4f8e5cec09b8fe3d425674edc3edd923978b0bef53f09b2a9b3506c"},
	{"olken", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0.1, Workers: 2}, 12000, 1124, "e812f0e8481743d1744a6aced60f058b6776aafc76bb592c11ddbe709d9acef2", "d5c9779623cf59636bba060f6557eb22c5aab8369f0f26e41212e216a4164483"},
	{"olken", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "688493186dff4bb06421c83289b10ed9633dbe72cb9d5ac685ddf0c2d5dbfc28", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 2}, 12000, 3502, "385a76728dace6584f5caf024f1c69e73115bfdaef7f709b1496852c70ebd278", ""},
	{"olken", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "688493186dff4bb06421c83289b10ed9633dbe72cb9d5ac685ddf0c2d5dbfc28", "8a2a4ded1ed81e15ee35405b691bc099d0fbc808cbd80c0400b025357ede1d8d"},
	{"olken", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0.3, Workers: 2}, 12000, 3502, "385a76728dace6584f5caf024f1c69e73115bfdaef7f709b1496852c70ebd278", "5220f57da4e8b1f8d2272799d60700ffabca89f16b1f5bdf1b7aa1877d2d1aac"},
	{"counterstacks", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "c18e929127178f7e370c8c25a5d1fde16dbae4fe609a8b83e4f2e5fcd3d86303", ""},
	{"counterstacks", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "d43f28e84f90d9398d045eae44de5a99cb86549cfce996773bc15c86f3d9f416", ""},
	{"che", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "136b8912f2b55e8aa52063fdc31ab43ec9dc29371dd4c2f21ceb5eef12f67d1b", ""},
	{"che", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "6346696fd8a959c418a29183f5eca4a12664783803e32f3941e2e5e3f912a7e2", ""},
	{"fagin", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "1ddd246d47e0583b1df8e4bcef8216aa6dc8bcc7be0e9abf8cba741a985ce8e0", ""},
	{"fagin", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "2088fbf4e500d75a853958281c7588823fdd0b8659e3fde947a34e2acf385b07", ""},
	{"aet", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "3ebd3c2a9f69c5f3ffbd8bbfbea9d26d894e79e121f2d9aa6ada7fdb0a98a536", ""},
	{"aet", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "01a4152cef023596603171512b5a9e325115095ce56726ebb3e6fd2cd25d0612", ""},
	{"aet", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "d1f948437cc3bd66be3d7dd649b1d9ca8c847de073f72ab7ebe3f3f1fa389490", ""},
	{"statstack", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "ef5fc639dfc0ffca93940d9b0edb3e51e3bd4338aa84ab1a1e25b33aa24e8fef", ""},
	{"statstack", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "dab6dc8364c9b6bd4a745ce7c5e0db2878a9bbbba4bd3d261da852835ef1b27e", ""},
	{"statstack", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "644c88177e0e27baed02a83c60cec1113cabd481c697c47efd51cfef284e2047", ""},
	{"shards-fixedsize", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "4d1b8829df9eca032bb7269201d8f7d267f78396c6f2c32afb02c21cb306cd18", ""},
	{"shards-fixedsize", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "dce048d8251a6aaddfceed0a9c6b935537cf4d14104b78262b11ae02c758aa37", ""},
	{"shards-fixedsize", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "7a2c79ed2587cb04b4296f88f253d73a68a559a876351943f6d497141a61fd2a", ""},
	{"shards-fixedsize", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 1, Workers: 0}, 12000, 12000, "4d1b8829df9eca032bb7269201d8f7d267f78396c6f2c32afb02c21cb306cd18", ""},
	{"mimir", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "678c52584b4b7fc27505a777c4da680a4e28a6b88488df58fd52b82fe9ee9054", ""},
	{"mimir", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "ea7ddf800ee377afaebbdba6af340efbca82a65391f76549f2ea71200d7a476d", ""},
	{"mimir", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "bd0aabbaa021f4d1a016025e5b2cbf8e39dacdb5843771bfd83723a5f36dadc0", ""},
	{"lfu", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "a995ff9dce7461f2077b153f7dbb4cf6826dc661871cfa285a5d8b3302eb3d44", ""},
	{"lfu", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "39a99c780d62e7193d4c25289a8c01700a95839a18a186f126f970704ef0787b", ""},
	{"lfu", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "9078c9759ee9dc2dd89442e24d04501c7bc100180505db6a193b3cc5b0e831da", ""},
	{"mru", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 12000, "82802047e29a7716622277377847262f281dc9a5f8b5ce399ff26faf0c1c458f", ""},
	{"mru", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "2c1a123ceb963b203513ce8d539bb88a822c90c62ee175bfa9d660d1edc09f45", ""},
	{"mru", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "d86f4d787ff1a5e093128ccf2a1cd12dd38c9e0f6f07e33e530bc1d8669a558d", ""},
}

// fixedSizeShrinkDigests pin shards-fixedsize where its sample set
// outgrows s_max and the threshold drops mid-stream: oracleTrace holds
// too few keys for that, so these run on shrinkTrace. Rate 0 starts
// unsampled and shrinks; 0.3 stays under the cap.
var fixedSizeShrinkDigests = []digestCase{
	{"shards-fixedsize", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 40000, 38938, "f1a2137a006e8bacca66087330748812c29a224214446058f7d111c9270aa974", ""},
	{"shards-fixedsize", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 40000, 14960, "d957ca0caa31fa709e161a585a569a70b9045a315af19c840e6e9f215b76544e", ""},
}

// shrinkTrace is the Zipf stream fixedSizeShrinkDigests were recorded
// on: 10237 distinct keys, past DefaultFixedSizeObjects.
func shrinkTrace(t *testing.T) *trace.Trace { return synthTrace(t, 40000, 20000, 5) }

// shardsDigests were recorded with the former shards.FixedRate model
// on oracleTrace with its deletes turned back into reads: shards is
// olken behind the adapter's filter plus SHARDS_adj on a histogram
// copy, and on a delete-free stream that correction is unchanged.
var shardsDigests = []digestCase{
	{"shards", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0, Workers: 0}, 12000, 21, "143aa42f760082cf3791e313a5b5976c2b2838ea04e4f9e13b575ad2d5302c67", ""},
	{"shards", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0, Workers: 0}, 12000, 21, "143aa42f760082cf3791e313a5b5976c2b2838ea04e4f9e13b575ad2d5302c67", "9d5e652023abef8233729171eda95a0be470222163c377165d98101b8390e209"},
	{"shards", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "a20228e8ddf4f4a1d27bd015a9feac5543e4e27f10e03b1930fe2437f22660cd", ""},
	{"shards", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0.1, Workers: 0}, 12000, 1124, "a20228e8ddf4f4a1d27bd015a9feac5543e4e27f10e03b1930fe2437f22660cd", "508e84f09582aef14b7ec7d24b45ba22dcdaabace3555a32eaa20560acbc1977"},
	{"shards", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "a8cdef09111082298f68030cd33eed7b1f7e06d6ad50d14a47daa5733c2be523", ""},
	{"shards", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 0.3, Workers: 0}, 12000, 3502, "a8cdef09111082298f68030cd33eed7b1f7e06d6ad50d14a47daa5733c2be523", "6fa2bab86f2517edcdf4f1e7bcaeb8a2c4e22c09f061eb81d0c08ff22c6db441"},
	{"shards", Options{Seed: 3, Bytes: BytesOff, SamplingRate: 1, Workers: 0}, 12000, 12000, "4a763151c682ac1c3478fbc8cc37f074ef680deefdfc76dda232240dcc36e271", ""},
	{"shards", Options{Seed: 3, Bytes: BytesOn, SamplingRate: 1, Workers: 0}, 12000, 12000, "4a763151c682ac1c3478fbc8cc37f074ef680deefdfc76dda232240dcc36e271", "d673e90a4c83b25dc8b40e35cc5e1c83d070a57d71b452f1d020053da5bb04ea"},
}

// withoutDeletes returns a copy of tr with every delete read instead.
func withoutDeletes(tr *trace.Trace) *trace.Trace {
	out := &trace.Trace{Reqs: append([]trace.Request(nil), tr.Reqs...)}
	for i := range out.Reqs {
		out.Reqs[i].Op = trace.OpGet
	}
	return out
}

func TestKRRCurvesMatchRecordedDigests(t *testing.T) {
	tr := oracleTrace(t)
	checkDigests(t, tr, krrDigests)
	checkDigests(t, withoutDeletes(tr), shardsDigests)
	checkDigests(t, shrinkTrace(t), fixedSizeShrinkDigests)
}

func checkDigests(t *testing.T, tr *trace.Trace, cases []digestCase) {
	t.Helper()
	for _, c := range cases {
		m, err := New(c.name, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, m, tr)
		snap := m.Snapshot()
		m.Close()
		obj, byt := curveDigest(snap.Object), curveDigest(snap.Byte)
		st := snap.Stats
		if obj != c.object || byt != c.bytes || st.Seen != c.seen || st.Sampled != c.sampled {
			t.Errorf("%s %+v:\n got obj %s bytes %q seen %d sampled %d\nwant obj %s bytes %q seen %d sampled %d",
				c.name, c.opts, obj, byt, st.Seen, st.Sampled, c.object, c.bytes, c.seen, c.sampled)
		}
	}
}

// TestShardsAtRateOneIsOlken: unsampled, SHARDS_adj has no shortfall
// to credit, so shards must equal the exact olken model bit for bit on
// a stream with deletes, object and byte curves alike. A correction
// that counts deletes as expected references credits each one as a
// distance-1 hit instead.
func TestShardsAtRateOneIsOlken(t *testing.T) {
	tr := oracleTrace(t)
	curves := func(name string) (obj, byt string) {
		m, err := New(name, Options{Seed: 3, Bytes: BytesOn, SamplingRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, m, tr)
		snap := m.Snapshot()
		return curveDigest(snap.Object), curveDigest(snap.Byte)
	}
	wantObj, wantByt := curves("olken")
	if obj, byt := curves("shards"); obj != wantObj || byt != wantByt {
		t.Fatalf("shards at rate 1: object %s bytes %s, olken: object %s bytes %s", obj, byt, wantObj, wantByt)
	}
}
