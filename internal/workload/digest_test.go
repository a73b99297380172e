package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// streamDigests pins the SHA-256 of the first 100k requests of every
// catalog workload, keyed "name/seed/1÷scale". Any change to a sampler,
// the RNG or a builder that moves even one request changes a digest.
var streamDigests = map[string]string{
	"uniform/1/16":    "cdb067a910ba2c081800abaf502137c6735b7bf9ef8ec76a0727c87db92a784b",
	"uniform/1/4":     "b2b1b2ba9130d278d27acc9cd00d71363a000b22d6a683b3a1c167ddc5eaf8bf",
	"uniform/2/16":    "78f372d61297583c9bb7294b800b4fdfccc7f7c1015dfd3a58858ba85208d5e5",
	"uniform/2/4":     "69e8163acfbbf86f62fbfc1f23e5c684a437cd654e2533146f068d9b7a4d6c8e",
	"alpha1/1/16":     "9dfa00ae942487bfdaa76fc69b68c4f8042cd4f50b3653a1317f36ba544911cb",
	"alpha1/1/4":      "bf050d91921c8e90fc1bfce59911b137f4ab55ee085384f6feb049eecfbc5859",
	"alpha1/2/16":     "f7db9317572e8778c767983affc18d1199013143aeb6aa5463653fd3c35e73eb",
	"alpha1/2/4":      "4034577a02ea7099b944c67a97a68173874d9d73ea8e774632fc4c396c8ed1b1",
	"alpha2/1/16":     "6f1291602ef52c2f1df2201e874427231c0489eb4935a33bcb348af09cf41f62",
	"alpha2/1/4":      "132278c749fef74fc21b9be0ecb6b58ea617b5df01852d1ff97056b1c1192335",
	"alpha2/2/16":     "4c5c0f60a1eca8d2b9fb53db011ffe33bb717fe2d534255411bd988d21f11ad5",
	"alpha2/2/4":      "09d5159200c348e093e12888f545ed3ee465784ece2157ce5501573aa48bbe49",
	"alpha3/1/16":     "69f302e457498cb257a41493c5b21f69b7c4f84dda1eb9a91da96c81016f0f92",
	"alpha3/1/4":      "aebdd67119b7d7d2303ccf972609b11b7838cd1202f63e3915adcdaff43797bd",
	"alpha3/2/16":     "10886ec7fe9565cf781852720c145d2669662763f65b1730133d08f705f8385a",
	"alpha3/2/4":      "cc73360bbeed4e4f11c5ff0d2fa526b7ead75897b27d033f01d6a65339ff2cf0",
	"exp1/1/16":       "fdeb4ae87e9455c46627aa2d8861c3ad0851a7d486e783b877ccf71417da9668",
	"exp1/1/4":        "eccb848dd4967b2acc1823366a3f3bfb6009a8b2258cc94fbf577a356d789048",
	"exp1/2/16":       "40276c48bf85f813c6b13441f010cd3e4aa335bf34db5f16e40bb4d04c565f6d",
	"exp1/2/4":        "4787b7fc9eb5662d19fd2b5dd501e3633ac7d15fb274bce440ca9c6fb022cefc",
	"exp2/1/16":       "c3bb39db16c7a89d55edd22ceed8a60556e99abe1e6f5ad4b0df7a64d7d91fc9",
	"exp2/1/4":        "a3da834d2a014805c86065f11ff4d0b83bc01785549dfbfab69eb8b04deb235b",
	"exp2/2/16":       "124b934141d5c007e8195842d97ad02b2c1c00dc066a66b444d40c9b925eb71c",
	"exp2/2/4":        "c42a8eaaa384f303811734f58a1a1d0d01fc2ac0d9183524e3d45cc694862041",
	"dbt2/1/16":       "074394cc82acfeb8b62059af70a4cff3d363a726ebd6784938ec56ff921f6b9d",
	"dbt2/1/4":        "77a43cd561dc9c2c6f8ef35855ce7c4845940ca53d346e3bce3e1528eb18c27b",
	"dbt2/2/16":       "787fdc6151a55411afeb4b3dd6fcc0cdc51996bfed44cae726641163e3bf9372",
	"dbt2/2/4":        "035b9c4a5b8e4cd0489aab223018651557d90da11e582f05cddd0a9e5142bf0c",
	"SPECWeb99/1/16":  "6c161cd4757fc304b37ba868b971a4be0deab1f4448c57288941068adfabfcf8",
	"SPECWeb99/1/4":   "90b857435e156441a0f16434d3b83da6f1220aa956b6abe9e6807a8cfa5b2a39",
	"SPECWeb99/2/16":  "d4e9b5fa46cc2a1a0f59e0e6b3d3095124167006c2c59da65361383e5c3e6152",
	"SPECWeb99/2/4":   "989da4364246c72190c805ddaa8e3b7b5f7679d6b27cd2d94f057420a3356857",
	"WebSearch1/1/16": "db7a851597b9fa5335903f4f99ee5ab9d7683dd0a001bf954855970ff2444662",
	"WebSearch1/1/4":  "0fa42431b71a611207201add4f047c8a21c744a189907f0d8fea9a4e817f2e91",
	"WebSearch1/2/16": "02695fa85b27523b06b9b56d1bb01592a99d9e4f60dd9758ca0b8d0e85ea28d5",
	"WebSearch1/2/4":  "9de1bbceb89fbc76d3b0373a3a75d689e7ac035f53cb1f3ee8240e24c3b00578",
	"WebSearch2/1/16": "99f854c3ea5a0fb5e436308347e46e5e3da94b16a7c17b3a87206605b05cf68b",
	"WebSearch2/1/4":  "7d962a28e3f9edb8a04b190e12916976520a6e559e4468828ffaa7616de06e41",
	"WebSearch2/2/16": "17e37ac77d355bd8085722e6a88bbae777823c1e575c3b37e481f14e4c0e6533",
	"WebSearch2/2/4":  "f49e62b5e426e5bb9aba86edea952ff3282215b854946d6aa97a9060cec984b8",
	"Financial1/1/16": "1075e84d1c9c99a759d84dec115b22753813b26c2e944ac3f4169c6a9634ce0a",
	"Financial1/1/4":  "e1f5b0b55d68aadeeec78fdf4be60b716880e3d9edba70404f58fb0aa3e46e5b",
	"Financial1/2/16": "d78d890da4ccf685d6e3cdb6555c669eb3118ee943ee158c70b034becf5e8155",
	"Financial1/2/4":  "3e250fed1b239f5a8602484fb71bdc2ba7f16bcfe46ecdd926877493bc513e55",
	"Financial2/1/16": "45baeee8326a08d79b9aa995293542002cdfa3d883b8956074889116d8f5f00f",
	"Financial2/1/4":  "4acdf9aebe7e2f5d2d10b9e01294d40af38356f1f49250b0904336fcb3cc4844",
	"Financial2/2/16": "95c5dece7e79a1666c478cc3e0a9bf3696753924b841985f6ddcc94e5d010719",
	"Financial2/2/4":  "ad38d49d8f3a323d511fa3998fb656920d0903cc3a71981f8e134ae7c82b725a",
}

// streamDigest hashes the first n requests of g as little-endian
// (op byte, LBA int64, pages int64) records.
func streamDigest(g Generator, n int) string {
	h := sha256.New()
	var rec [17]byte
	for i := 0; i < n; i++ {
		r := g.Next()
		rec[0] = byte(r.Op)
		binary.LittleEndian.PutUint64(rec[1:9], uint64(r.LBA))
		binary.LittleEndian.PutUint64(rec[9:17], uint64(int64(r.Pages)))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCatalogStreamDigests(t *testing.T) {
	const n = 100_000
	for _, name := range Names() {
		for _, seed := range []uint64{1, 2} {
			for _, div := range []int{16, 4} {
				key := fmt.Sprintf("%s/%d/%d", name, seed, div)
				got := streamDigest(MustNew(name, 1/float64(div), seed), n)
				if want := streamDigests[key]; got != want {
					t.Errorf("%q: %q, want %q", key, got, want)
				}
			}
		}
	}
}
