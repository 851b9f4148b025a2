package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// snapshotPoints are the stream positions checkSnapshotDigest reads
// the model at: three mid-stream, none a multiple of Counter Stacks'
// 1000-request batch, so a partial batch is pending at each, and the
// end of oracleTrace.
var snapshotPoints = []int{2500, 6001, 9777, 12000}

// snapshotDigest feeds oracleTrace to a model built from (name, opts)
// in ProcessBatch calls that stop at each of snapshotPoints, takes a
// Snapshot there, and returns the SHA-256 over every snapshot's object
// and byte curve digests and stream counters.
func snapshotDigest(t *testing.T, name string, opts Options) string {
	t.Helper()
	reqs := oracleTrace(t).Reqs
	m, err := New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	done := 0
	for _, p := range snapshotPoints {
		if err := m.ProcessBatch(reqs[done:p]); err != nil {
			t.Fatal(err)
		}
		done = p
		snap := m.Snapshot()
		fmt.Fprintf(h, "%s/%s/", curveDigest(snap.Object), curveDigest(snap.Byte))
		binary.LittleEndian.PutUint64(b[:], snap.Stats.Seen)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], snap.Stats.Sampled)
		h.Write(b[:])
	}
	m.Close()
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotDigestCase is one configuration's recorded snapshot digest.
type snapshotDigestCase struct {
	name   string
	opts   Options
	digest string
}

// snapshotDigests were recorded on oracleTrace while every model still
// had a second, finalizing curve read beside Snapshot. Byte-capable
// entries run with BytesOn, and the CapSharded entries also at
// Workers 2.
var snapshotDigests = []snapshotDigestCase{
	{"aet", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "8ee26815394e090fbcf3a281d8233efee28f806dd637640f63142460129f3c2d"},
	{"aet", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "76fea43be0680423622e0ec22da804dce786f5c3012ade0dbd7aea072f6e7666"},
	{"che", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "b38a86da22e43701826f1dcdb947d4c4397bf9831d81e0cfd9beb3b11f931da4"},
	{"che", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "f5b588921ae485b6d798f3a3f97410e9a420aaf6baf160f7fdac802312ea307e"},
	{"counterstacks", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "be5d12a82e3ea8e2b08b8cd749e50753fb64f73af7921fe421c1b5a98ba9594a"},
	{"counterstacks", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "755a2fde834a7f069367b776c8a4373ce791b3a0bb551b5bc4df9ca12f7281da"},
	{"fagin", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "1e504b7b4fd71230e962bf578df8d75df346f405124cf04767e177972af4f070"},
	{"fagin", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "9f93acd9adfea1a322e6cb4aaede8c61427a2a68cf257b137d59ac3f896152ee"},
	{"krr", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 0}, "1dce1c7433762cf850392817224f4cbf716c8c45fa5e154931045089195d6954"},
	{"krr", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 0}, "fc8f679ea22b9469d701c9c70fdeeb2dfc9256b5107dbc6f3b9b118f8f51b77e"},
	{"krr", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 2}, "e656a4d842ba4c849dfb2aa74f3322a0d6a13e1f5b3a69dd4669e008c1280394"},
	{"krr", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 2}, "86538c411ff919722b5b19c799838624fea97ccfb25470aa6195bc151ecb2d39"},
	{"krr-bucket", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "7f7d856a92ad963c835acc7511e2cfbc98daa96b12cb5a7141a1a0e87314cb4f"},
	{"krr-bucket", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "b7c70f7c670817f233e597d15ba59680e69d0b73253dde0b08d7f437975c4c07"},
	{"krr-bucket", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 2}, "b84df778fff3cc47b42b996c10b2425061099a062ecbf310786caeffe73f7921"},
	{"krr-bucket", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 2}, "f1381c971879c9c516976726f6eee2ad687f741f2a7077abbf747e810520a955"},
	{"krr-linear", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 0}, "49b0d4baa1c97ba37d88f7c6384b9a12c8d82be1340b64cdd4e85f821a4b3872"},
	{"krr-linear", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 0}, "11676cfa5f72cf1f1e6a85e7b6abbe0e2be5cd48ef0b1d67eb64952413987a95"},
	{"krr-linear", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 2}, "056a661719747f5307a4b02ee74babe96829fc2dc04fe6cfdd2610da3f08a7ff"},
	{"krr-linear", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 2}, "c659d65af86c98c38d0bbecbd3c06a4018c6b7d7982a892a9b273cfb78774e55"},
	{"krr-topdown", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 0}, "787338687e94644a4a85627d4b1a9ef4e3bcffcdf696d9587dfb6636e144f4bd"},
	{"krr-topdown", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 0}, "0df5d21ab70b8ed0404ca3529e23b997656c2b7586dc4f3cbfa4583a8c75be0c"},
	{"krr-topdown", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 2}, "4143cbf6617ddb3634ee7b0c77d6560a2fc2ed26c801aeefca57c2704861e060"},
	{"krr-topdown", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 2}, "a868ac1f72597dcb15cb9c0d3dae6c32f18e2d00633b813cddd76f195c8c33c1"},
	{"lfu", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "f24ecb7048f63a686efc605eb30b5c8be75739ab64dc5300fb0dc239b7db6ec1"},
	{"lfu", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "2b907b3c884948bd7a6a8cea72dfedc5a5fee20c04fe91f4f3289e754be45292"},
	{"mimir", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "60e4766c77e2cbc1e8ec24cc39e1e03cd2365eaf258813e3beb9da1c2115fcd7"},
	{"mimir", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "13f5e2f68ef4c94413fee6e55c6dd30a6178d1a79909a4f6c7daea985d19eb36"},
	{"mimir", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 2}, "1a383dd44694502807b6fe89d657609a9d43eb58bd0b1a66f8b88b127c623b46"},
	{"mimir", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 2}, "0eea1c15108eef55d46521991bf8af6615eda52fa84852fbfdfcb7563e818c75"},
	{"mru", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "6b72e9b2cef133ac5113386985f38d265240f316240d100fd3cff30a79113674"},
	{"mru", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "50e3e56d3ae129a8ff592f5e7d6b219af3931072a23af7f96efdcb5b59f5457b"},
	{"olken", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 0}, "eaf6c21e7684a18ccaf392b300d5b4fe0b720eff9f8fff0feaf94122ba1266a4"},
	{"olken", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 0}, "0530096ca57b35360c2b8563ba1fff2069bf2655b20ee6c1d55740960e928eb4"},
	{"olken", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 2}, "a828762fbcc2a5d15031caf741cc5567cc97a7fa9aaf7544bb9f6de9e67e0ac6"},
	{"olken", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 2}, "10298296d7c3fd6bf0800f4b72d375d2d6a20aaaf47ac9593e22127d6febd7df"},
	{"shards", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOn, Workers: 0}, "37c0a8708fa750bc152bca53040a7e8bc030100cb7285cfb70251491ce12153c"},
	{"shards", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOn, Workers: 0}, "9e8bec9f13b84422803ea60f957bc64c025de7a6593d5a74cd01dfe14042350f"},
	{"shards-fixedsize", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "0c008cd1dac134f738e1ef56b3738ef55e7d33dea1735890601d44034275d479"},
	{"shards-fixedsize", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "a4c20f6369dff69f1e63d36b26fd8efc3dc0300666fa142c9095d4e7159d58d1"},
	{"statstack", Options{Seed: 3, SamplingRate: 0, Bytes: BytesOff, Workers: 0}, "9a1a32e73f5913aba6c5b551233d17810138727998688b3599eaf29a4282bfe2"},
	{"statstack", Options{Seed: 3, SamplingRate: 0.1, Bytes: BytesOff, Workers: 0}, "deb1e9962cb602ce52e15d62eee4ecc64415ca1428b25c4b2b21a78bac5c13e2"},
}

func TestSnapshotCurvesMatchRecordedDigests(t *testing.T) {
	for _, c := range snapshotDigests {
		if got := snapshotDigest(t, c.name, c.opts); got != c.digest {
			t.Errorf("%s %+v: snapshot digest %s, want %s", c.name, c.opts, got, c.digest)
		}
	}
}
